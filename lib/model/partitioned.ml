(** Pure partitioned baselines: every job is pinned to one machine.

    These are the comparison points of experiment F2 — the approach the
    paper's semi-partitioned and hierarchical models are designed to
    beat whenever single-machine capacity is the bottleneck. *)

(** Greedy earliest-completion list scheduling for unrelated machines:
    jobs in decreasing order of their minimum processing time, each
    placed on the machine where it finishes earliest.  Returns
    [(job → machine, makespan)], or [None] if some job fits nowhere. *)
let greedy_unrelated (times : Ptime.t array array) =
  let n = Array.length times in
  if n = 0 then Some ([||], 0)
  else begin
    let m = Array.length times.(0) in
    let minp j = Array.fold_left Ptime.min Ptime.Inf times.(j) in
    if List.exists (fun j -> not (Ptime.is_fin (minp j))) (List.init n (fun j -> j)) then None
    else begin
      let order =
        List.init n (fun j -> j)
        |> List.sort (fun a b -> Ptime.compare (minp b) (minp a))
      in
      let load = Array.make m 0 in
      let place = Array.make n (-1) in
      List.iter
        (fun j ->
          let best = ref None in
          for i = 0 to m - 1 do
            match times.(j).(i) with
            | Ptime.Inf -> ()
            | Ptime.Fin p -> (
                let finish = load.(i) + p in
                match !best with
                | None -> best := Some (i, finish)
                | Some (_, bf) -> if finish < bf then best := Some (i, finish))
          done;
          match !best with
          | Some (i, finish) ->
              place.(j) <- i;
              load.(i) <- finish
          | None -> assert false)
        order;
      Some (place, Array.fold_left Stdlib.max 0 load)
    end
  end

(** Longest-processing-time list scheduling on identical machines (the
    classic 4/3-approximation), for completeness of the baseline set. *)
let lpt_identical ~m ~lengths =
  if m <= 0 then invalid_arg "lpt: no machines";
  let order =
    Array.to_list (Array.mapi (fun j p -> (j, p)) lengths)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let load = Array.make m 0 in
  let place = Array.make (Array.length lengths) (-1) in
  List.iter
    (fun (j, p) ->
      let best = ref 0 in
      for i = 1 to m - 1 do
        if load.(i) < load.(!best) then best := i
      done;
      place.(j) <- !best;
      load.(!best) <- load.(!best) + p)
    order;
  (place, Array.fold_left Stdlib.max 0 load)

(** Lift a partitioned placement on a hierarchical instance to an
    {!Assignment.t} over singleton masks; [None] if a machine lacks a
    singleton set. *)
let to_assignment inst (place : int array) =
  let lam = Instance.laminar inst in
  let a = Array.make (Array.length place) (-1) in
  let ok = ref true in
  Array.iteri
    (fun j i ->
      match Hs_laminar.Laminar.singleton lam i with
      | Some s -> a.(j) <- s
      | None -> ok := false)
    place;
  if !ok then Some a else None

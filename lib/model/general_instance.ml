(** Instances with {e arbitrary} (possibly non-laminar) admissible
    families, used only by the Section II 8-approximation (experiment T6).
    The hierarchical machinery does not apply here; what the paper gives
    us is the reduction to unrelated machines, which {!to_unrelated}
    implements:  [p'_ij = min { P_j(α) : i ∈ α ∈ A }]. *)

type t = {
  m : int;
  sets : int array array;  (** each sorted; need not be laminar *)
  p : Ptime.t array array;  (** [p.(j).(k)] = P_j(sets.(k)) *)
}

let make ~m ~sets ~p =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let sets = Array.of_list (List.map (fun s -> Array.of_list (List.sort_uniq compare s)) sets) in
  let bad = ref None in
  Array.iteri
    (fun k s ->
      if Array.length s = 0 then bad := Some (Printf.sprintf "set %d empty" k);
      Array.iter (fun i -> if i < 0 || i >= m then bad := Some (Printf.sprintf "set %d out of range" k)) s)
    sets;
  (* Monotonicity across all subset pairs. *)
  let subset a b = Array.for_all (fun x -> Array.exists (( = ) x) b) a in
  Array.iteri
    (fun j row ->
      if Array.length row <> Array.length sets then
        bad := Some (Printf.sprintf "job %d: wrong arity" j)
      else
        Array.iteri
          (fun k1 p1 ->
            Array.iteri
              (fun k2 p2 ->
                if k1 <> k2 && subset sets.(k1) sets.(k2) && not (Ptime.leq p1 p2) then
                  bad := Some (Printf.sprintf "job %d not monotone on sets %d ⊆ %d" j k1 k2))
              row)
          row)
    p;
  match !bad with Some msg -> err "general instance: %s" msg | None -> Ok { m; sets; p }

let make_exn ~m ~sets ~p =
  match make ~m ~sets ~p with Ok t -> t | Error e -> invalid_arg e

let njobs t = Array.length t.p
let nmachines t = t.m

(** The reduction of Section II: an unrelated-machines instance whose
    optimal {e preemptive} makespan lower-bounds the optimum of the
    original instance. *)
let to_unrelated t =
  let n = njobs t in
  let times =
    Array.init n (fun j ->
        Array.init t.m (fun i ->
            let best = ref Ptime.Inf in
            Array.iteri
              (fun k s ->
                if Array.exists (( = ) i) s then best := Ptime.min !best t.p.(j).(k))
              t.sets;
            !best))
  in
  Instance.unrelated ~m:t.m times

(** Minimal admissible set (by cardinality) containing machine [i] that
    attains the reduced processing time of job [j]; used to lift a
    partitioned solution of the reduced instance back to the original
    family. *)
let witness_set t ~job ~machine =
  let best = ref None in
  Array.iteri
    (fun k s ->
      if Array.exists (( = ) machine) s then
        match !best with
        | None -> best := Some k
        | Some b ->
            let better =
              Ptime.compare t.p.(job).(k) t.p.(job).(b) < 0
              || Ptime.equal t.p.(job).(k) t.p.(job).(b)
                 && Array.length s < Array.length t.sets.(b)
            in
            if better then best := Some k)
    t.sets;
  !best

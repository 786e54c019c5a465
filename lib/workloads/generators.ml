(** Synthetic workload generators for the experiment suite.

    The paper has no empirical section, so these generators define the
    evaluation workloads (DESIGN.md §4): random unrelated matrices,
    hierarchical instances whose processing-time functions are built
    bottom-up from per-machine speeds plus per-level migration overheads
    (monotone by construction), random laminar topologies, and the
    memory payloads of Section VI. *)

open Hs_model
open Hs_laminar
module Q = Hs_numeric.Q

(** Random unrelated-machines instance. [correlation] interpolates
    between machine-independent uniform times (0.0) and strongly
    machine-correlated times (1.0), the two standard regimes of the
    R||Cmax literature. *)
let unrelated rng ~n ~m ~pmin ~pmax ?(correlation = 0.0) () =
  if n <= 0 || m <= 0 || pmin < 0 || pmax < pmin then invalid_arg "Generators.unrelated";
  let speed = Array.init m (fun _ -> 0.5 +. Rng.float rng) in
  let times =
    Array.init n (fun _ ->
        let base = Rng.int_range rng pmin pmax in
        Array.init m (fun i ->
            let uncorrelated = Rng.int_range rng pmin pmax in
            let correlated =
              Stdlib.max pmin
                (Stdlib.min pmax (int_of_float (float_of_int base *. speed.(i))))
            in
            let v =
              int_of_float
                ((correlation *. float_of_int correlated)
                +. ((1. -. correlation) *. float_of_int uncorrelated))
            in
            Ptime.fin (Stdlib.max 1 v)))
  in
  Instance.unrelated ~m times

(** Hierarchical instance over an arbitrary singleton-complete laminar
    topology.  Per job: a base length in [base]; per machine a speed in
    [[1, heterogeneity]]; singleton times are [⌈base·speed⌉]; a set's
    time is the max over its children plus a migration overhead of
    [⌈overhead·base⌉] per level climbed.  Monotone by construction. *)
let hierarchical rng ~lam ~n ~base:(blo, bhi) ?(heterogeneity = 1.0) ?(overhead = 0.1) () =
  if n <= 0 || blo <= 0 || bhi < blo then invalid_arg "Generators.hierarchical";
  if heterogeneity < 1.0 || overhead < 0.0 then invalid_arg "Generators.hierarchical";
  let m = Laminar.m lam in
  let speed =
    Array.init m (fun _ -> 1.0 +. (Rng.float rng *. (heterogeneity -. 1.0)))
  in
  let nsets = Laminar.size lam in
  let p =
    Array.init n (fun _ ->
        let b = Rng.int_range rng blo bhi in
        let row = Array.make nsets Ptime.Inf in
        let ov = Stdlib.max 1 (int_of_float (ceil (overhead *. float_of_int b))) in
        let rec fill set =
          let v =
            match Laminar.children lam set with
            | [] ->
                (* leaf: must be a singleton in a closed family *)
                let i = (Laminar.members lam set).(0) in
                int_of_float (ceil (float_of_int b *. speed.(i)))
            | children -> List.fold_left (fun acc c -> Stdlib.max acc (fill c)) 0 children + ov
          in
          row.(set) <- Ptime.fin v;
          v
        in
        List.iter (fun r -> ignore (fill r)) (Laminar.roots lam);
        row)
  in
  Instance.make_exn lam p

(** Random laminar topology: recursively partition [0..m) into 2..arity
    contiguous groups until singletons; includes the root and all
    intermediate groups. *)
let random_laminar rng ~m ?(arity = 3) () =
  if m <= 0 || arity < 2 then invalid_arg "Generators.random_laminar";
  let sets = ref [] in
  let rec go lo hi =
    (* [lo, hi) *)
    let width = hi - lo in
    sets := List.init width (fun k -> lo + k) :: !sets;
    if width > 1 then begin
      let parts = Stdlib.min width (2 + Rng.int rng (arity - 1)) in
      (* choose parts-1 distinct cut points *)
      let cuts = Array.init (width - 1) (fun k -> lo + 1 + k) in
      Rng.shuffle rng cuts;
      let chosen = Array.sub cuts 0 (parts - 1) in
      Array.sort compare chosen;
      let bounds = Array.concat [ [| lo |]; chosen; [| hi |] ] in
      for k = 0 to Array.length bounds - 2 do
        go bounds.(k) bounds.(k + 1)
      done
    end
  in
  go 0 m;
  Laminar.of_sets_exn ~m (List.sort_uniq compare !sets)

(** Semi-partitioned instance controlled by a target load factor
    [load = (Σ_j mean local time) / (m · pmax)]: local times are uniform
    in [[pmin, pmax]], global times add a migration premium of
    [premium] (≥ 0) percent.  Used by experiment F2. *)
let semi_partitioned_load rng ~m ~load ~pmin ~pmax ?(premium = 0.2) () =
  if m <= 0 || load <= 0.0 || pmin <= 0 || pmax < pmin then
    invalid_arg "Generators.semi_partitioned_load";
  let mean = float_of_int (pmin + pmax) /. 2.0 in
  let n = Stdlib.max 1 (int_of_float (load *. float_of_int m *. float_of_int pmax /. mean)) in
  let local =
    Array.init n (fun _ ->
        Array.init m (fun _ -> Ptime.fin (Rng.int_range rng pmin pmax)))
  in
  let global =
    Array.init n (fun j ->
        let worst =
          Array.fold_left
            (fun acc pt -> Stdlib.max acc (Option.get (Ptime.value pt)))
            0 local.(j)
        in
        Ptime.fin (int_of_float (ceil (float_of_int worst *. (1.0 +. premium)))))
  in
  Instance.semi_partitioned ~global ~local

(** Seeded online trace over a singleton-complete family (DESIGN.md §15).

    Deterministic shard split: event [e] draws from its own SplitMix64
    stream derived from [(seed, e)] (the oracle's recipe), so the trace
    is a pure function of the seed regardless of how callers batch or
    parallelise around the generator.  Arrival rows reuse the
    {!hierarchical} fill (per-machine speeds from the trace-level
    stream, per-level overhead); a [restricted] fraction of jobs is
    confined to a random subtree that intersects the never-drained
    machines, so every trace passes {!Hs_online.Trace.make}'s lifetime
    admissibility by construction.  Drains hit distinct machines at
    evenly spaced positions and never empty the machine set. *)
let trace ~seed ~lam ~events:nevents ~base:(blo, bhi) ?(heterogeneity = 1.0)
    ?(overhead = 0.1) ?(departures = 0.3) ?(drains = 0) ?(restricted = 0.3)
    ?max_live () =
  let m = Laminar.m lam in
  if nevents < 0 || blo <= 0 || bhi < blo then invalid_arg "Generators.trace";
  if heterogeneity < 1.0 || overhead < 0.0 then invalid_arg "Generators.trace";
  if departures < 0.0 || departures > 1.0 || restricted < 0.0 || restricted > 1.0
  then invalid_arg "Generators.trace";
  if drains < 0 || drains >= m then invalid_arg "Generators.trace";
  (match max_live with
  | Some k when k < 1 -> invalid_arg "Generators.trace"
  | _ -> ());
  let nsets = Laminar.size lam in
  let rng0 = Rng.create seed in
  let speed =
    Array.init m (fun _ -> 1.0 +. (Rng.float rng0 *. (heterogeneity -. 1.0)))
  in
  let drained_machines =
    let order = Array.init m (fun i -> i) in
    Rng.shuffle rng0 order;
    Array.sub order 0 drains
  in
  let survives i = not (Array.exists (fun d -> d = i) drained_machines) in
  (* Sets a restricted job may be confined to: subtrees that keep a
     surviving machine (so the job stays admissible through all drains). *)
  let safe_sets =
    List.filter
      (fun s -> Array.exists survives (Laminar.members lam s))
      (List.init nsets Fun.id)
  in
  let drain_at =
    (* evenly spaced, strictly increasing, never at index 0 (an empty
       system has nothing to re-seat, which would waste the drain);
       positions pushed past the end are dropped *)
    let at = Array.make drains 0 in
    let prev = ref 0 in
    for k = 0 to drains - 1 do
      let p = Stdlib.max (!prev + 1) ((k + 1) * nevents / (drains + 1)) in
      at.(k) <- p;
      prev := p
    done;
    at
  in
  let drain_index e =
    let found = ref None in
    Array.iteri (fun k pos -> if pos = e && !found = None then found := Some k) drain_at;
    !found
  in
  let live = ref [] in
  let evs = ref [] in
  for e = 0 to nevents - 1 do
    let rng = Rng.create (seed + (0x9e3779b9 * (e + 1))) in
    let over_cap =
      match max_live with Some k -> List.length !live >= k | None -> false
    in
    match drain_index e with
    | Some k ->
        evs := (e, Hs_online.Trace.Drain { machine = drained_machines.(k) }) :: !evs
    | None ->
        if !live <> [] && (over_cap || Rng.bool rng departures) then begin
          let victims = Array.of_list (List.sort compare !live) in
          let job = Rng.choose rng victims in
          live := List.filter (fun j -> j <> job) !live;
          evs := (e, Hs_online.Trace.Depart { job }) :: !evs
        end
        else begin
          let b = Rng.int_range rng blo bhi in
          let ov = Stdlib.max 1 (int_of_float (ceil (overhead *. float_of_int b))) in
          let row = Array.make nsets Ptime.Inf in
          let rec fill set =
            let v =
              match Laminar.children lam set with
              | [] ->
                  let i = (Laminar.members lam set).(0) in
                  int_of_float (ceil (float_of_int b *. speed.(i)))
              | children ->
                  List.fold_left (fun acc c -> Stdlib.max acc (fill c)) 0 children
                  + ov
            in
            row.(set) <- Ptime.fin v;
            v
          in
          (if Rng.bool rng restricted && safe_sets <> [] then
             ignore (fill (Rng.choose rng (Array.of_list safe_sets)))
           else List.iter (fun r -> ignore (fill r)) (Laminar.roots lam));
          live := e :: !live;
          evs := (e, Hs_online.Trace.Arrive { ptimes = row }) :: !evs
        end
  done;
  Hs_online.Trace.make_exn lam (List.rev !evs)

(** Memory payload for Model 1: per-machine budgets and per-(job,machine)
    space requirements with a feasibility [slack] factor (> 1 loosens the
    budgets). *)
let model1_payload rng inst ~smax ~slack =
  if smax <= 0 || slack <= 0.0 then invalid_arg "Generators.model1_payload";
  let n = Instance.njobs inst in
  let m = Instance.nmachines inst in
  let space = Array.init n (fun _ -> Array.init m (fun _ -> Rng.int_range rng 1 smax)) in
  let total = Array.fold_left (fun acc row -> acc + Array.fold_left Stdlib.max 0 row) 0 space in
  let budget =
    Stdlib.max smax (int_of_float (ceil (slack *. float_of_int total /. float_of_int m)))
  in
  { Hs_core.Memory.budgets = Array.make m budget; space }

(** Memory payload for Model 2: job sizes are rationals in (0, 1]. *)
let model2_payload rng inst ~mu =
  let n = Instance.njobs inst in
  let sizes = Array.init n (fun _ -> Q.of_ints (1 + Rng.int rng 16) 16) in
  { Hs_core.Memory.mu; sizes }

(** Independent re-validation of the paper's invariants.

    Every checker here re-derives its condition from raw accessors —
    member lists, processing times, segment endpoints — deliberately
    avoiding the predicates of the modules that {e produced} the
    artifact, so a bug in a producer cannot hide inside its own checker.
    Fractional arithmetic is exact ({!Hs_numeric.Q}); schedule overlap
    is established by an event sweep rather than the sort-and-compare
    pass of {!Hs_model.Schedule.validate}. *)

open Hs_model
open Hs_laminar
module Q = Hs_numeric.Q
module V = Verdict

(* Subset test on raw sorted member arrays — independent of the forest
   structure Laminar materialised. *)
let subset_arr (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na then true
    else if j >= nb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

let members_of lam = Array.init (Laminar.size lam) (Laminar.members lam)

(* {1 Laminar family well-formedness} *)

let laminar_family lam =
  let m = Laminar.m lam in
  let sets = members_of lam in
  let nsets = Array.length sets in
  let bad_range = ref None in
  Array.iteri
    (fun s mem ->
      if Array.length mem = 0 then bad_range := Some (s, None)
      else
        Array.iter
          (fun i -> if i < 0 || i >= m then bad_range := Some (s, Some i))
          mem)
    sets;
  let range_item =
    match !bad_range with
    | None ->
        V.pass ~invariant:"laminar.members"
          (Printf.sprintf "%d sets non-empty within %d machines" nsets m)
    | Some (s, None) -> V.fail ~invariant:"laminar.members" "set %d is empty" s
    | Some (s, Some i) ->
        V.fail ~invariant:"laminar.members" "set %d lists machine %d outside [0,%d)"
          s i m
  in
  (* Pairwise: nested or disjoint, and no duplicates. *)
  let clash = ref None in
  for a = 0 to nsets - 1 do
    for b = a + 1 to nsets - 1 do
      if !clash = None then begin
        let sa = sets.(a) and sb = sets.(b) in
        if sa = sb then clash := Some (a, b, `Dup)
        else
          let meets =
            Array.exists (fun i -> Array.exists (fun j -> i = j) sb) sa
          in
          if meets && (not (subset_arr sa sb)) && not (subset_arr sb sa) then
            clash := Some (a, b, `Cross)
      end
    done
  done;
  let laminar_item =
    match !clash with
    | None ->
        V.pass ~invariant:"laminar.nested-or-disjoint"
          "every pair of sets is nested or disjoint"
    | Some (a, b, `Dup) ->
        V.fail ~invariant:"laminar.nested-or-disjoint" "sets %d and %d are equal" a b
    | Some (a, b, `Cross) ->
        V.fail ~invariant:"laminar.nested-or-disjoint"
          "sets %d and %d properly overlap" a b
  in
  [ range_item; laminar_item ]

(* {1 Monotonicity of processing times} *)

let monotonicity inst =
  let lam = Instance.laminar inst in
  let sets = members_of lam in
  let nsets = Array.length sets in
  let bad = ref None in
  for a = 0 to nsets - 1 do
    for b = 0 to nsets - 1 do
      if a <> b && subset_arr sets.(a) sets.(b) then
        for j = 0 to Instance.njobs inst - 1 do
          let pa = Instance.ptime inst ~job:j ~set:a
          and pb = Instance.ptime inst ~job:j ~set:b in
          if (not (Ptime.leq pa pb)) && !bad = None then bad := Some (j, a, b)
        done
    done
  done;
  match !bad with
  | None ->
      [ V.pass ~invariant:"instance.monotone" "P_j(α) ≤ P_j(β) for all α ⊆ β" ]
  | Some (j, a, b) ->
      [
        V.fail ~invariant:"instance.monotone"
          "job %d: P(set %d) > P(set %d) though set %d ⊆ set %d" j a b a b;
      ]

(* {1 (IP-2): integral assignment feasibility at a horizon} *)

let assignment inst (a : Assignment.t) ~tmax =
  let lam = Instance.laminar inst in
  let n = Instance.njobs inst and nsets = Laminar.size lam in
  let sets = members_of lam in
  if Array.length a <> n then
    [
      V.fail ~invariant:"ip2.well-formed" "assignment has %d entries, instance %d jobs"
        (Array.length a) n;
    ]
  else begin
    let bad = ref None in
    Array.iteri
      (fun j s ->
        if s < 0 || s >= nsets then bad := Some (V.fail ~invariant:"ip2.well-formed" "job %d assigned out-of-range set %d" j s)
        else if not (Ptime.is_fin (Instance.ptime inst ~job:j ~set:s)) then
          bad := Some (V.fail ~invariant:"ip2.well-formed" "job %d assigned inadmissible set %d" j s))
      a;
    match !bad with
    | Some item -> [ item ]
    | None ->
        let wf =
          V.pass ~invariant:"ip2.well-formed"
            (Printf.sprintf "%d jobs on admissible in-range masks" n)
        in
        (* (2c): every used processing time fits the horizon. *)
        let oversize = ref None in
        Array.iteri
          (fun j s ->
            let p = Ptime.value_exn (Instance.ptime inst ~job:j ~set:s) in
            if p > tmax && !oversize = None then oversize := Some (j, s, p))
          a;
        let fit =
          match !oversize with
          | None ->
              V.pass ~invariant:"ip2.job-fits"
                (Printf.sprintf "every assigned time ≤ horizon %d" tmax)
          | Some (j, s, p) ->
              V.fail ~invariant:"ip2.job-fits" "job %d on set %d needs %d > horizon %d"
                j s p tmax
        in
        (* (2b): subtree volume vs. aggregate capacity, re-derived from
           raw member arrays. *)
        let overflow = ref None in
        for alpha = 0 to nsets - 1 do
          let vol = ref 0 in
          Array.iteri
            (fun j s ->
              if subset_arr sets.(s) sets.(alpha) then
                vol := !vol + Ptime.value_exn (Instance.ptime inst ~job:j ~set:s))
            a;
          let cap = Array.length sets.(alpha) * tmax in
          if !vol > cap && !overflow = None then overflow := Some (alpha, !vol, cap)
        done;
        let cap_item =
          match !overflow with
          | None ->
              V.pass ~invariant:"ip2.subtree-volume"
                (Printf.sprintf "subtree volumes fit |α|·%d on all %d sets" tmax nsets)
          | Some (alpha, vol, cap) ->
              V.fail ~invariant:"ip2.subtree-volume"
                "set %d carries subtree volume %d > capacity %d" alpha vol cap
        in
        [ wf; fit; cap_item ]
  end

(* {1 (IP-3) relaxation: fractional feasibility in exact rationals} *)

let fractional inst (x : Q.t array array) ~tmax =
  let lam = Instance.laminar inst in
  let n = Instance.njobs inst and nsets = Laminar.size lam in
  let sets = members_of lam in
  if
    Array.length x <> nsets
    || Array.exists (fun row -> Array.length row <> n) x
  then
    [
      V.fail ~invariant:"ip3.shape" "solution is not a %d×%d set-by-job matrix" nsets
        n;
    ]
  else begin
    let neg = ref None and escaped = ref None in
    for s = 0 to nsets - 1 do
      for j = 0 to n - 1 do
        let v = x.(s).(j) in
        if Q.sign v < 0 && !neg = None then neg := Some (s, j);
        if (not (Q.is_zero v)) && not (Ptime.fits (Instance.ptime inst ~job:j ~set:s) ~tmax)
        then if !escaped = None then escaped := Some (s, j)
      done
    done;
    let nonneg =
      match !neg with
      | None -> V.pass ~invariant:"ip3.nonneg" "all x ≥ 0"
      | Some (s, j) ->
          V.fail ~invariant:"ip3.nonneg" "x[set %d][job %d] = %s < 0" s j
            (Q.to_string x.(s).(j))
    in
    let restricted =
      match !escaped with
      | None ->
          V.pass ~invariant:"ip3.restricted"
            (Printf.sprintf "weight only on pairs with p ≤ %d" tmax)
      | Some (s, j) ->
          V.fail ~invariant:"ip3.restricted"
            "x[set %d][job %d] = %s but p = %s exceeds horizon %d" s j
            (Q.to_string x.(s).(j))
            (Ptime.to_string (Instance.ptime inst ~job:j ~set:s))
            tmax
    in
    (* (3·assignment): each job's weights sum to one. *)
    let short = ref None in
    for j = 0 to n - 1 do
      let sum = ref Q.zero in
      for s = 0 to nsets - 1 do
        sum := Q.add !sum x.(s).(j)
      done;
      if (not (Q.equal !sum Q.one)) && !short = None then short := Some (j, !sum)
    done;
    let assigned =
      match !short with
      | None -> V.pass ~invariant:"ip3.assignment" "Σ_α x_{αj} = 1 for every job"
      | Some (j, sum) ->
          V.fail ~invariant:"ip3.assignment" "job %d total weight %s ≠ 1" j
            (Q.to_string sum)
    in
    (* (3a): subtree volume within aggregate capacity, exactly. *)
    let overflow = ref None in
    for alpha = 0 to nsets - 1 do
      let vol = ref Q.zero in
      for s = 0 to nsets - 1 do
        if subset_arr sets.(s) sets.(alpha) then
          for j = 0 to n - 1 do
            if not (Q.is_zero x.(s).(j)) then
              match Ptime.value (Instance.ptime inst ~job:j ~set:s) with
              | Some p -> vol := Q.add !vol (Q.mul_int x.(s).(j) p)
              | None -> ()
          done
      done;
      let cap = Q.of_int (Array.length sets.(alpha) * tmax) in
      if Q.gt !vol cap && !overflow = None then overflow := Some (alpha, !vol, cap)
    done;
    let capacity =
      match !overflow with
      | None ->
          V.pass ~invariant:"ip3.capacity"
            (Printf.sprintf "fractional subtree volumes fit |α|·%d" tmax)
      | Some (alpha, vol, cap) ->
          V.fail ~invariant:"ip3.capacity" "set %d carries volume %s > capacity %s"
            alpha (Q.to_string vol) (Q.to_string cap)
    in
    [ nonneg; restricted; assigned; capacity ]
  end

(* {1 Lemma V.1: push-down} *)

let pushdown inst ~before ~after ~tmax =
  let lam = Instance.laminar inst in
  let n = Instance.njobs inst and nsets = Laminar.size lam in
  let sets = members_of lam in
  (* Singleton-only mass: any weight on a set of cardinality > 1 is a
     violation. *)
  let stray = ref None in
  for s = 0 to nsets - 1 do
    if Array.length sets.(s) > 1 then
      for j = 0 to n - 1 do
        if (not (Q.is_zero after.(s).(j))) && !stray = None then stray := Some (s, j)
      done
  done;
  let singleton_item =
    match !stray with
    | None ->
        V.pass ~invariant:"lemma-v1.singleton-mass" "all weight on singleton sets"
    | Some (s, j) ->
        V.fail ~invariant:"lemma-v1.singleton-mass"
          "job %d keeps weight %s on non-singleton set %d" j
          (Q.to_string after.(s).(j))
          s
  in
  (* Per-job mass is preserved exactly. *)
  let drift = ref None in
  for j = 0 to n - 1 do
    let sum rows =
      let s = ref Q.zero in
      Array.iter (fun row -> s := Q.add !s row.(j)) rows;
      !s
    in
    let b = sum before and a = sum after in
    if (not (Q.equal b a)) && !drift = None then drift := Some (j, b, a)
  done;
  let mass_item =
    match !drift with
    | None -> V.pass ~invariant:"lemma-v1.mass-preserved" "per-job mass unchanged"
    | Some (j, b, a) ->
        V.fail ~invariant:"lemma-v1.mass-preserved" "job %d mass %s → %s" j
          (Q.to_string b) (Q.to_string a)
  in
  singleton_item :: mass_item :: fractional inst after ~tmax

(* {1 Lemmas IV.1 / IV.2: Algorithm 2 allocations} *)

let allocation inst (a : Assignment.t) (alloc : Hs_core.Hierarchical.allocation)
    ~tmax =
  let lam = Instance.laminar inst in
  let nsets = Laminar.size lam in
  let m = Laminar.m lam in
  let sets = members_of lam in
  let { Hs_core.Hierarchical.load; tot_load } = alloc in
  (* Volume conservation: Algorithm 2 splits exactly the direct volume
     of each set over its machines. *)
  let vol_bad = ref None in
  for s = 0 to nsets - 1 do
    let want = ref 0 in
    Array.iteri
      (fun j sj ->
        if sj = s then
          want := !want + Ptime.value_exn (Instance.ptime inst ~job:j ~set:s))
      a;
    let got = Array.fold_left ( + ) 0 load.(s) in
    if got <> !want && !vol_bad = None then vol_bad := Some (s, got, !want)
  done;
  let volume_item =
    match !vol_bad with
    | None ->
        V.pass ~invariant:"alg2.volume-conserved"
          "per-set load sums equal assigned volumes"
    | Some (s, got, want) ->
        V.fail ~invariant:"alg2.volume-conserved"
          "set %d: allocated %d units, assigned volume is %d" s got want
  in
  (* Lemma IV.1, re-derived: TOT-LOAD.(α).(i) is the chain sum of LOAD
     over the subsets of α containing machine i (Algorithm 2 fills
     bottom-up, so the cumulative load on i within α is what the subtree
     below α already placed there) and never exceeds the horizon. *)
  let chain_bad = ref None and over = ref None in
  for s = 0 to nsets - 1 do
    for i = 0 to m - 1 do
      let sum = ref 0 in
      for b = 0 to nsets - 1 do
        if subset_arr sets.(b) sets.(s) && Array.exists (fun k -> k = i) sets.(b)
        then sum := !sum + load.(b).(i)
      done;
      if tot_load.(s).(i) <> !sum && !chain_bad = None then
        chain_bad := Some (s, i, tot_load.(s).(i), !sum);
      if !sum > tmax && !over = None then over := Some (s, i, !sum)
    done
  done;
  let chain_item =
    match !chain_bad with
    | None ->
        V.pass ~invariant:"lemma-iv1.chain-sum"
          "TOT-LOAD equals the subtree chain sum of LOAD"
    | Some (s, i, got, want) ->
        V.fail ~invariant:"lemma-iv1.chain-sum"
          "set %d machine %d: TOT-LOAD %d ≠ chain sum %d" s i got want
  in
  let horizon_item =
    match !over with
    | None ->
        V.pass ~invariant:"lemma-iv1.horizon"
          (Printf.sprintf "cumulative loads ≤ horizon %d" tmax)
    | Some (s, i, v) ->
        V.fail ~invariant:"lemma-iv1.horizon"
          "set %d machine %d cumulative load %d > horizon %d" s i v tmax
  in
  (* Lemma IV.2, re-derived: within each set at most one machine is
     loaded both by the set and by a strict superset. *)
  let shared_bad = ref None in
  for s = 0 to nsets - 1 do
    let shared = ref 0 in
    Array.iter
      (fun i ->
        if load.(s).(i) > 0 then begin
          let above = ref 0 in
          for b = 0 to nsets - 1 do
            if
              b <> s
              && subset_arr sets.(s) sets.(b)
              && Array.exists (fun k -> k = i) sets.(b)
            then above := !above + load.(b).(i)
          done;
          if !above > 0 then incr shared
        end)
      sets.(s);
    if !shared > 1 && !shared_bad = None then shared_bad := Some (s, !shared)
  done;
  let shared_item =
    match !shared_bad with
    | None ->
        V.pass ~invariant:"lemma-iv2.unique-shared"
          "≤ 1 machine per set also loaded by a strict superset"
    | Some (s, k) ->
        V.fail ~invariant:"lemma-iv2.unique-shared"
          "set %d has %d machines loaded by strict supersets" s k
  in
  [ volume_item; chain_item; horizon_item; shared_item ]

(* {1 Section II: concrete schedule validity, by event sweep} *)

let schedule inst (a : Assignment.t) (sched : Schedule.t) =
  let lam = Instance.laminar inst in
  let horizon = Schedule.horizon sched in
  let segs = Schedule.segments sched in
  let n = Instance.njobs inst and m = Laminar.m lam in
  (* Bounds and affinity. *)
  let bounds_bad = ref None and aff_bad = ref None in
  List.iter
    (fun ({ Schedule.job; machine; start; stop } as _seg) ->
      if
        (job < 0 || job >= n || machine < 0 || machine >= m || start < 0
       || stop > horizon || start >= stop)
        && !bounds_bad = None
      then bounds_bad := Some (job, machine, start, stop)
      else if
        job >= 0 && job < n
        && not (Array.exists (fun i -> i = machine) (Laminar.members lam a.(job)))
        && !aff_bad = None
      then aff_bad := Some (job, machine))
    segs;
  let bounds_item =
    match !bounds_bad with
    | None ->
        V.pass ~invariant:"sched.segments"
          (Printf.sprintf "%d segments well-formed within [0,%d)" (List.length segs)
             horizon)
    | Some (j, i, s, e) ->
        V.fail ~invariant:"sched.segments"
          "segment job %d machine %d [%d,%d) escapes [0,%d)" j i s e horizon
  in
  let affinity_item =
    match !aff_bad with
    | None ->
        V.pass ~invariant:"sched.affinity" "segments stay on the assigned masks"
    | Some (j, i) ->
        V.fail ~invariant:"sched.affinity" "job %d runs on machine %d outside its mask"
          j i
  in
  match !bounds_bad with
  | Some _ -> [ bounds_item; affinity_item ]
  | None ->
      (* Event sweep: +1 at start, −1 at stop; a prefix sum above one is
         a double booking.  Run once per machine and once per job. *)
      let sweep key_of label =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun seg ->
            let k = key_of seg in
            let evs = try Hashtbl.find tbl k with Not_found -> [] in
            Hashtbl.replace tbl k
              ((seg.Schedule.start, 1) :: (seg.Schedule.stop, -1) :: evs))
          segs;
        let clash = ref None in
        Hashtbl.iter
          (fun k evs ->
            let evs =
              List.sort
                (fun (t1, d1) (t2, d2) -> if t1 <> t2 then compare t1 t2 else compare d1 d2)
                evs
            in
            let depth = ref 0 in
            List.iter
              (fun (t, d) ->
                depth := !depth + d;
                if !depth > 1 && !clash = None then clash := Some (k, t))
              evs)
          tbl;
        match !clash with
        | None -> V.pass ~invariant:label "no overlap (event sweep)"
        | Some (k, t) ->
            V.fail ~invariant:label "%s %d double-booked at time %d"
              (if label = "sched.machine-exclusive" then "machine" else "job")
              k t
      in
      let machine_item = sweep (fun s -> s.Schedule.machine) "sched.machine-exclusive" in
      let job_item = sweep (fun s -> s.Schedule.job) "sched.job-serial" in
      (* Work conservation: every job receives exactly P_j(mask). *)
      let received = Array.make n 0 in
      List.iter
        (fun { Schedule.job; start; stop; _ } ->
          received.(job) <- received.(job) + (stop - start))
        segs;
      let short = ref None in
      for j = 0 to n - 1 do
        let want = Ptime.value_exn (Instance.ptime inst ~job:j ~set:a.(j)) in
        if received.(j) <> want && !short = None then short := Some (j, received.(j), want)
      done;
      let work_item =
        match !short with
        | None ->
            V.pass ~invariant:"sched.work-conserved"
              "every job receives exactly its processing time"
        | Some (j, got, want) ->
            V.fail ~invariant:"sched.work-conserved" "job %d receives %d of %d units" j
              got want
      in
      [ bounds_item; affinity_item; machine_item; job_item; work_item ]

(* {1 Proposition III.2: migration / preemption bounds} *)

let tape_bounds ~m (stats : Hs_core.Tape.stats) =
  let migrations = stats.Hs_core.Tape.migrations in
  let stops = Hs_core.Tape.stops stats in
  [
    V.check ~invariant:"prop-iii2.migrations"
      (migrations <= m - 1)
      ~witness:(Printf.sprintf "%d migrations > m−1 = %d" migrations (m - 1))
      ~detail:(Printf.sprintf "%d migrations ≤ m−1 = %d" migrations (m - 1));
    V.check ~invariant:"prop-iii2.stops"
      (stops <= (2 * m) - 2)
      ~witness:(Printf.sprintf "%d stops > 2m−2 = %d" stops ((2 * m) - 2))
      ~detail:(Printf.sprintf "%d stops ≤ 2m−2 = %d" stops ((2 * m) - 2));
  ]

(* {1 Online per-step invariants (DESIGN.md §15)} *)

let online_step inst (a : Assignment.t) ~makespan ~t_lp ~resolve_admitted
    ~migrated ~allowed =
  let lam = Instance.laminar inst in
  let sets = members_of lam in
  let nsets = Array.length sets in
  (* Theorem IV.3's closed form, re-derived from raw member arrays: the
     minimal horizon of a fixed set assignment is the larger of the
     biggest assigned time and the per-set ceiling of subtree volume
     over cardinality.  The online scheduler must report exactly it —
     neither an optimistic underbid nor slack it would hide behind. *)
  let tight =
    if Array.length a <> Instance.njobs inst then
      V.fail ~invariant:"online.makespan-tight"
        "assignment has %d entries, instance %d jobs" (Array.length a)
        (Instance.njobs inst)
    else begin
      let best = ref 0 in
      Array.iteri
        (fun j s ->
          let p = Ptime.value_exn (Instance.ptime inst ~job:j ~set:s) in
          if p > !best then best := p)
        a;
      for alpha = 0 to nsets - 1 do
        let vol = ref 0 in
        Array.iteri
          (fun j s ->
            if subset_arr sets.(s) sets.(alpha) then
              vol := !vol + Ptime.value_exn (Instance.ptime inst ~job:j ~set:s))
          a;
        let card = Array.length sets.(alpha) in
        let need = (!vol + card - 1) / card in
        if need > !best then best := need
      done;
      V.check ~invariant:"online.makespan-tight" (makespan = !best)
        ~witness:
          (Printf.sprintf "reported makespan %d ≠ minimal horizon %d" makespan
             !best)
        ~detail:
          (Printf.sprintf "reported makespan is the minimal horizon %d" !best)
    end
  in
  (* Any feasible assignment's makespan dominates OPT, which dominates
     the LP horizon — so the competitive ratio is well-defined (≥ 1). *)
  let lower =
    V.check ~invariant:"online.lower-bound" (t_lp <= makespan)
      ~witness:(Printf.sprintf "makespan %d below LP lower bound %d" makespan t_lp)
      ~detail:(Printf.sprintf "LP lower bound %d ≤ makespan %d" t_lp makespan)
  in
  let budget =
    match allowed with
    | None ->
        V.pass ~invariant:"online.budget"
          (Printf.sprintf "migrated volume %s under an unlimited budget"
             (Q.to_string migrated))
    | Some cap ->
        V.check ~invariant:"online.budget" (Q.leq migrated cap)
          ~witness:
            (Printf.sprintf "migrated volume %s > allowance %s"
               (Q.to_string migrated) (Q.to_string cap))
          ~detail:
            (Printf.sprintf "migrated volume %s ≤ allowance %s"
               (Q.to_string migrated) (Q.to_string cap))
  in
  (* Whenever the budget admitted the fresh re-solve, the scheduler holds
     the Theorem V.2 envelope against the fresh lower bound: it either
     adopted the 2-approximate candidate or kept a strictly better
     current assignment.  A budget-blocked step asserts nothing — the
     competitive-ratio harness reports how far those steps drift. *)
  let regression =
    if resolve_admitted then
      V.check ~invariant:"online.no-regression"
        (makespan <= 2 * t_lp)
        ~witness:
          (Printf.sprintf "makespan %d > 2·T* = %d after an admitted re-solve"
             makespan (2 * t_lp))
        ~detail:
          (Printf.sprintf "makespan %d ≤ 2·T* = %d against the fresh LP bound"
             makespan (2 * t_lp))
    else
      V.pass ~invariant:"online.no-regression"
        "re-solve not admitted by the migration budget; envelope not asserted"
  in
  [ tight; lower; budget; regression ]

(* {1 The LP lower bound, recomputed} *)

module Ilp_exact = Hs_core.Ilp.Make (Hs_lp.Field.Exact)

(* {1 LP vertex structure}

   simplex.mli promises basic feasible solutions (vertices), and the
   Lenstra–Shmoys–Tardos support bound rests on that promise; these
   checks hold a returned solution to it.  The [basic] flags must be
   consistent with [x] (a nonbasic variable sits at its bound 0), the
   basic support cannot exceed the row count (a basis has one column
   per row), the point must satisfy every constraint with [x ≥ 0], and
   the reported objective must equal [c·x] recomputed from the problem
   statement. *)
let lp_vertex (lp : Q.t Hs_lp.Lp_problem.t) ~x ~basic ~objective =
  let open Hs_lp.Lp_problem in
  let nv = Stdlib.min (Array.length x) (Array.length basic) in
  let shape =
    V.check ~invariant:"lp.vertex.shape"
      (Array.length x = lp.nvars && Array.length basic = lp.nvars)
      ~witness:
        (Printf.sprintf "|x| = %d and |basic| = %d against nvars = %d"
           (Array.length x) (Array.length basic) lp.nvars)
      ~detail:(Printf.sprintf "solution arrays match nvars = %d" lp.nvars)
  in
  let loose = ref None in
  for v = nv - 1 downto 0 do
    if (not basic.(v)) && Q.sign x.(v) <> 0 then loose := Some v
  done;
  let at_bound =
    match !loose with
    | None ->
        V.pass ~invariant:"lp.vertex.nonbasic-at-bound"
          "every nonbasic variable sits at its bound 0"
    | Some v ->
        V.fail ~invariant:"lp.vertex.nonbasic-at-bound"
          "variable %d is flagged nonbasic but x = %s ≠ 0 — not the claimed vertex"
          v (Q.to_string x.(v))
  in
  let support = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 basic in
  let rows = nconstrs lp in
  let support_ok =
    V.check ~invariant:"lp.vertex.support"
      (support <= rows)
      ~witness:
        (Printf.sprintf "%d basic variables exceed the %d constraint rows" support rows)
      ~detail:(Printf.sprintf "basic support %d ≤ %d rows" support rows)
  in
  let nonneg = ref true in
  Array.iter (fun xv -> if Q.sign xv < 0 then nonneg := false) x;
  let violated =
    List.find_opt
      (fun c ->
        let lhs =
          List.fold_left
            (fun acc (v, a) ->
              if v < Array.length x then Q.add acc (Q.mul a x.(v)) else acc)
            Q.zero c.terms
        in
        match c.rel with
        | Le -> Q.compare lhs c.rhs > 0
        | Ge -> Q.compare lhs c.rhs < 0
        | Eq -> Q.sign (Q.sub lhs c.rhs) <> 0)
      lp.constrs
  in
  let feasible_pt =
    match (!nonneg, violated) with
    | true, None ->
        V.pass ~invariant:"lp.vertex.feasible"
          "x ≥ 0 and every constraint holds"
    | false, _ -> V.fail ~invariant:"lp.vertex.feasible" "some x is negative"
    | _, Some c ->
        V.fail ~invariant:"lp.vertex.feasible" "constraint %s violated at x"
          (if c.cname = "" then "<unnamed>" else c.cname)
  in
  let cx =
    List.fold_left
      (fun acc (v, c) ->
        if v < Array.length x then Q.add acc (Q.mul c x.(v)) else acc)
      Q.zero lp.objective
  in
  let obj_ok =
    V.check ~invariant:"lp.vertex.objective"
      (Q.sign (Q.sub cx objective) = 0)
      ~witness:
        (Printf.sprintf "reported objective %s but c·x = %s" (Q.to_string objective)
           (Q.to_string cx))
      ~detail:"reported objective equals c·x"
  in
  [ shape; at_bound; support_ok; feasible_pt; obj_ok ]

let lp_lower_bound inst ~t_lp =
  let feasible, vertex =
    match Ilp_exact.relaxation inst ~tmax:t_lp with
    | None ->
        ( V.fail ~invariant:"lp.feasible-at-t"
            "(IP-3) relaxation infeasible at T* = %d" t_lp,
          [] )
    | Some (lp, _) -> (
        match Ilp_exact.Solver.feasible lp with
        | Ilp_exact.Solver.Feasible sol ->
            ( V.pass ~invariant:"lp.feasible-at-t"
                (Printf.sprintf "(IP-3) relaxation feasible at T* = %d" t_lp),
              (* The recomputed witness must itself be the vertex the
                 solver contract promises; the relaxation has no
                 objective, so c·x is zero. *)
              lp_vertex lp ~x:sol.Ilp_exact.Solver.x
                ~basic:sol.Ilp_exact.Solver.basic ~objective:Q.zero )
        | Ilp_exact.Solver.Infeasible_certificate _ ->
            ( V.fail ~invariant:"lp.feasible-at-t"
                "(IP-3) relaxation infeasible at T* = %d" t_lp,
              [] ))
  in
  let minimal =
    if t_lp = 0 then V.pass ~invariant:"lp.minimal" "T* = 0 is trivially minimal"
    else if Ilp_exact.certified_infeasible inst ~tmax:(t_lp - 1) then
      V.pass ~invariant:"lp.minimal"
        (Printf.sprintf "T* − 1 = %d certified infeasible (Farkas)" (t_lp - 1))
    else
      V.fail ~invariant:"lp.minimal"
        "relaxation not certified infeasible at T* − 1 = %d — T* is not minimal"
        (t_lp - 1)
  in
  (feasible :: vertex) @ [ minimal ]

(* {1 Theorem V.2} *)

let theorem_v2 ~t_lp ~makespan =
  [
    V.check ~invariant:"thm-v2.bound"
      (makespan <= 2 * t_lp)
      ~witness:(Printf.sprintf "makespan %d > 2·T* = %d" makespan (2 * t_lp))
      ~detail:(Printf.sprintf "makespan %d ≤ 2·T* = %d" makespan (2 * t_lp));
  ]

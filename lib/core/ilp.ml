(** The (IP-1)/(IP-2)/(IP-3) formulations and their LP relaxations.

    (IP-3) is the decision form used by Section V: for a fixed horizon
    [T], variables [x_{αj}] exist only for pairs in
    [R = {(α,j) : p_{αj} ≤ T}] (the pruning that eliminates constraints
    (2c)), each job picks one mask (2a), and every set's subtree volume
    fits its aggregate capacity (2b)/(3a).

    The module is a functor over the coefficient field so the same code
    provides the certified exact path and the fast floating-point path. *)

open Hs_model
open Hs_laminar
module LP = Hs_lp.Lp_problem

(* Telemetry cells, shared by the exact and float instantiations. *)
module Obs = struct
  module M = Hs_obs.Metrics

  let probes = M.counter "search.probes"
  let feasible_probes = M.counter "search.feasible_probes"
  let lp_solves = M.counter "search.lp_relaxations"
end

module Make (F : Hs_lp.Field.S) = struct
  module Solver = Hs_lp.Simplex.Make (F)

  type frac = F.t array array
  (** [x.(set).(job)] — a (fractional) solution of the (IP-3) relaxation. *)

  (** The restricted pair set [R] at horizon [tmax]:
      [pairs.(set).(job)] iff [p_{set,job} ≤ tmax]. *)
  let restricted inst ~tmax =
    let lam = Instance.laminar inst in
    Array.init (Laminar.size lam) (fun s ->
        Array.init (Instance.njobs inst) (fun j ->
            Ptime.fits (Instance.ptime inst ~job:j ~set:s) ~tmax))

  (** Build the LP relaxation of (IP-3) for horizon [tmax].  Returns the
      problem plus the variable numbering, or [None] when some job has an
      empty row of [R] (trivially infeasible). *)
  let relaxation inst ~tmax =
    let lam = Instance.laminar inst in
    let n = Instance.njobs inst in
    let nsets = Laminar.size lam in
    let r = restricted inst ~tmax in
    let var_of = Array.make_matrix nsets n (-1) in
    let vars = ref [] and nvars = ref 0 in
    for s = 0 to nsets - 1 do
      for j = 0 to n - 1 do
        if r.(s).(j) then begin
          var_of.(s).(j) <- !nvars;
          vars := (s, j) :: !vars;
          incr nvars
        end
      done
    done;
    let job_covered = Array.make n false in
    List.iter (fun (_, j) -> job_covered.(j) <- true) !vars;
    if not (Array.for_all (fun c -> c) job_covered) && n > 0 then None
    else begin
      let pt s j = F.of_int (Ptime.value_exn (Instance.ptime inst ~job:j ~set:s)) in
      let assign_constraints =
        List.init n (fun j ->
            let terms =
              List.filter_map
                (fun s -> if r.(s).(j) then Some (var_of.(s).(j), F.one) else None)
                (List.init nsets (fun s -> s))
            in
            LP.constr ~name:(Printf.sprintf "assign(j=%d)" j) terms LP.Eq F.one)
      in
      let capacity_constraints =
        List.map
          (fun alpha ->
            let terms =
              List.concat_map
                (fun beta ->
                  List.filter_map
                    (fun j ->
                      if r.(beta).(j) then Some (var_of.(beta).(j), pt beta j) else None)
                    (List.init n (fun j -> j)))
                (Laminar.descendants lam alpha)
            in
            LP.constr
              ~name:(Printf.sprintf "cap(a=%d)" alpha)
              terms LP.Le
              (F.of_int (Laminar.card lam alpha * tmax)))
          (Laminar.bottom_up lam)
      in
      Some
        ( LP.make ~nvars:!nvars (assign_constraints @ capacity_constraints),
          var_of )
    end

  (** Budget-aware LP feasibility of (IP-3) at horizon [tmax]: one
      {!Solver.feasible} solve (under [--lp-presolve] the solver first
      tries its own float-guessed basis).  Raises {!Hs_error.Error}
      on pivot-budget exhaustion; [trip] is the fault-injection hook,
      called on entry with {!Hs_error.Lp}. *)
  let lp_feasible_x ?pivots ?(trip = fun (_ : Hs_error.stage) -> ()) inst ~tmax :
      frac option =
    trip Hs_error.Lp;
    Hs_obs.Metrics.incr Obs.lp_solves;
    Hs_obs.Tracer.with_span ~cat:"lp" ~args:[ ("T", Hs_obs.Tracer.Int tmax) ] "lp.feasible"
    @@ fun () ->
    match relaxation inst ~tmax with
    | None -> None
    | Some (lp, var_of) -> (
        let sol =
          try Solver.feasible ?budget:pivots lp
          with Hs_lp.Simplex.Pivot_limit ->
            Hs_error.raise_
              (Budget_exhausted
                 {
                   stage = Lp;
                   detail =
                     Printf.sprintf "simplex pivot budget ran out at T=%d%s" tmax
                       (match pivots with
                       | Some b ->
                           Printf.sprintf " (used %d of %d pivots)"
                             (Hs_lp.Simplex.consumed b) b.Hs_lp.Simplex.total
                       | None -> "");
                 })
        in
        match sol with
        | Solver.Infeasible_certificate _ -> None
        | Solver.Feasible sol ->
            let lam = Instance.laminar inst in
            Some
              (Array.init (Laminar.size lam) (fun s ->
                   Array.init (Instance.njobs inst) (fun j ->
                       if var_of.(s).(j) >= 0 then sol.x.(var_of.(s).(j)) else F.zero))))

  (** LP feasibility of (IP-3) at horizon [tmax]; [Some] basic fractional
      solution or [None].  Unlimited budget — never raises. *)
  let lp_feasible inst ~tmax : frac option = lp_feasible_x inst ~tmax

  (** Search bounds for the minimal feasible horizon: the max of the
      per-job minimum processing times is a certain lower bound (below it
      some job has no admissible mask).  The upper bound is the total
      minimum volume, lowered to the makespan of the greedy list
      schedule on the singleton masks when every job has a finite
      singleton time: that integral assignment satisfies the relaxation
      at its own makespan (the argument is in ilp.mli).  Returns [None]
      when some job has no finite mask at all. *)
  let t_bounds inst =
    let n = Instance.njobs inst in
    let rec go j lo hi =
      if j >= n then Some (lo, hi)
      else
        match Ptime.value (Instance.min_ptime inst j) with
        | None -> None
        | Some v -> go (j + 1) (Stdlib.max lo v) (hi + v)
    in
    Option.map
      (fun (lo, hi) ->
        match Partitioned.greedy_unrelated (Instance.singleton_times inst) with
        | Some (_, makespan) -> (lo, Stdlib.min hi makespan)
        | None -> (lo, hi))
      (go 0 0 0)

  (** Certified infeasibility of the relaxation at a horizon: either some
      job has no admissible mask at all (trivially infeasible), or the
      simplex produces a Farkas witness that passes independent
      verification.  Used to certify the lower side of the binary
      search. *)
  let certified_infeasible inst ~tmax =
    match relaxation inst ~tmax with
    | None -> true
    | Some (lp, _) -> (
        match Solver.feasible lp with
        | Solver.Feasible _ -> false
        | Solver.Infeasible_certificate y -> Solver.check_farkas lp y)

  (** Budget-aware binary search for the minimal LP-feasible horizon.
      Each probe fires the [trip] hook with {!Hs_error.Search}; the
      pivot budget is threaded into every probe's LP solve. *)
  let min_feasible_t_x ?pivots ?(trip = fun (_ : Hs_error.stage) -> ()) inst :
      (int * frac) option =
    match t_bounds inst with
    | None -> None
    | Some (lo, hi) ->
        let rec search lo hi best =
          if lo > hi then best
          else begin
            trip Hs_error.Search;
            let mid = (lo + hi) / 2 in
            Hs_obs.Metrics.incr Obs.probes;
            let probe =
              Hs_obs.Tracer.with_span ~cat:"search"
                ~args:[ ("T", Hs_obs.Tracer.Int mid) ]
                "search.probe"
                (fun () ->
                  let r = lp_feasible_x ?pivots ~trip inst ~tmax:mid in
                  Hs_obs.Tracer.add_args
                    [ ("feasible", Hs_obs.Tracer.Bool (Option.is_some r)) ];
                  r)
            in
            match probe with
            | Some x ->
                Hs_obs.Metrics.incr Obs.feasible_probes;
                search lo (mid - 1) (Some (mid, x))
            | None -> search (mid + 1) hi best
          end
        in
        search lo hi None

  (** Minimal integer horizon with a feasible LP relaxation, together
      with a basic fractional solution at that horizon.  This is the
      binary search of Section V: the result lower-bounds the integral
      optimum.  Unlimited budget — never raises. *)
  let min_feasible_t inst : (int * frac) option = min_feasible_t_x inst
end

(** Integral feasibility of (IP-2) — constraints (2a)–(2c) — for a given
    assignment and horizon; field-independent. *)
let integral_feasible inst assignment ~tmax = Assignment.feasible inst assignment ~tmax

(** The (IP-1)/(IP-2)/(IP-3) formulations and their LP relaxations (§III–V).

    (IP-3) is the decision form: for a fixed horizon [T], variables
    [x_{αj}] exist only for pairs in [R = {(α,j) : p_{αj} ≤ T}], each job
    picks one mask (3·assignment), and every set's subtree volume fits
    its aggregate capacity (3a).  Functorised over the coefficient field:
    {!Hs_lp.Field.Exact} certifies answers, {!Hs_lp.Field.Float} trades
    certification for speed.  The budget-aware [_x] entry points meter
    pivots against a shared allowance; degeneracy is left to the
    simplex, which switches to Bland's rule in place. *)

open Hs_model

module Make (F : Hs_lp.Field.S) : sig
  module Solver : module type of Hs_lp.Simplex.Make (F)

  type frac = F.t array array
  (** [x.(set).(job)] — a fractional solution of the (IP-3) relaxation. *)

  val restricted : Instance.t -> tmax:int -> bool array array
  (** The pair set [R]: [r.(set).(job)] iff [p ≤ tmax]. *)

  val relaxation :
    Instance.t -> tmax:int -> (F.t Hs_lp.Lp_problem.t * int array array) option
  (** The LP relaxation plus the [(set, job) → variable] numbering;
      [None] when some job has an empty row of [R]. *)

  val lp_feasible : Instance.t -> tmax:int -> frac option
  (** A {e basic} fractional solution at horizon [tmax], or [None]. *)

  val lp_feasible_x :
    ?pivots:Hs_lp.Simplex.budget ->
    ?trip:(Hs_error.stage -> unit) ->
    Instance.t ->
    tmax:int ->
    frac option
  (** Budget-aware {!lp_feasible}: raises {!Hs_error.Error} with
      [Budget_exhausted] when the shared pivot allowance runs out; the
      message names [tmax], the horizon where it ran out.  [trip] is
      the fault-injection hook, fired on entry with {!Hs_error.Lp}.
      Every call is one {!Hs_lp.Simplex.Make.feasible} solve, cold
      unless {!Hs_lp.Simplex.set_presolve} lets the solver's own float
      guess stand in for phase 1 as an exact witness. *)

  val t_bounds : Instance.t -> (int * int) option
  (** Certified search bounds [(lo, hi)] for the minimal feasible
      horizon; [None] when some job has no finite mask.

      - [lo = max_j min_α p]: below it some job has no admissible mask.
      - [hi = min (Σ_j min_α p, g)], where [g] is the makespan of
        {!Hs_model.Partitioned.greedy_unrelated} on
        {!Hs_model.Instance.singleton_times}.  When some job has no
        finite singleton time the greedy fails and [hi = Σ_j min_α p].

      Why the relaxation is feasible at [g]: the greedy puts each job
      [j] on a singleton [{i}] with [p_{{i},j} ≤ load_i].  At [T = g =
      max_i load_i], every pair it uses is in [R(T)] and every
      assignment row holds with that pair at 1.  Only singletons carry
      volume, so the capacity row of a set [α] reads
      [Σ_{i∈α} load_i ≤ card(α)·T].  The volume bound [Σ_j min_α p] is
      feasible by the same argument applied to any job-by-job
      placement on a minimal mask. *)

  val min_feasible_t : Instance.t -> (int * frac) option
  (** Binary search of Section V over {!t_bounds}: the minimal integer
      horizon whose LP relaxation is feasible (a lower bound on the
      integral optimum), with a basic solution at that horizon.

      LP feasibility is monotone in [T] ([R(T)] and every capacity
      grow with [T]), so bisecting below any feasible [hi] returns the
      same [T*] as bisecting below [Σ_j min_α p].  The solution is that
      of the last feasible probe, a cold solve at [T*] (every probe is
      cold), so it is the same vertex too. *)

  val min_feasible_t_x :
    ?pivots:Hs_lp.Simplex.budget ->
    ?trip:(Hs_error.stage -> unit) ->
    Instance.t ->
    (int * frac) option
  (** Budget-aware {!min_feasible_t}: every probe fires [trip] with
      {!Hs_error.Search} before delegating to {!lp_feasible_x} with the
      shared pivot budget.  Raises {!Hs_error.Error} on exhaustion. *)

  val certified_infeasible : Instance.t -> tmax:int -> bool
  (** [true] iff the relaxation at [tmax] is infeasible {e and} the
      infeasibility is certified: either a job has no admissible mask, or
      the simplex's Farkas witness passes independent verification.
      Certifies the lower side of the binary search (meaningful with
      {!Hs_lp.Field.Exact}). *)
end

val integral_feasible : Instance.t -> Assignment.t -> tmax:int -> bool
(** (IP-2) feasibility of an integral assignment; field-independent. *)

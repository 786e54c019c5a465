(** Theorem V.2: the polynomial-time 2-approximation for hierarchical
    scheduling, plus the Section II 8-approximation for general
    (non-laminar) families.

    Pipeline: singleton closure → binary search of the minimal
    LP-feasible horizon [T*] (a certified lower bound on OPT) → re-solve
    the unrelated-machines restriction at [T*] to a basic solution
    (feasible by Lemma V.1) → Lenstra–Shmoys–Tardos rounding →
    Algorithms 2–3.  The achieved makespan is at most [2·T* ≤ 2·OPT].

    The search brackets [T*] between [max_j min_α p] and the makespan
    of the greedy partitioned list schedule on the singleton masks, the
    same restriction [I_u] this pipeline rounds on.  That schedule is an
    integral assignment, so the relaxation is feasible at its makespan
    and the bracket is sound ({!Ilp.Make.t_bounds}).  On a closed
    instance every job has a finite singleton time, so the greedy
    always applies. *)

open Hs_model

module Make (F : Hs_lp.Field.S) : sig
  module I : sig
    type frac = F.t array array

    val lp_feasible : Instance.t -> tmax:int -> frac option

    val t_bounds : Instance.t -> (int * int) option
    (** {!Ilp.Make.t_bounds}: [max_j min_α p] up to the smaller of
        [Σ_j min_α p] and the greedy partitioned makespan, a horizon at
        which the relaxation is feasible. *)

    val min_feasible_t : Instance.t -> (int * frac) option
    (** {!Ilp.Make.min_feasible_t}: bisection over {!t_bounds}, the
        same [T*] and vertex as bisecting up to [Σ_j min_α p]. *)
  end

  module R : sig
    type stats = { fractional_jobs : int; matched : int }
  end

  val unrelated_restriction : Instance.t -> Instance.t
  (** The instance [I_u] of Section V: only the singleton masks of a
      singleton-closed instance. *)

  type outcome = {
    instance : Instance.t;  (** the singleton-closed instance solved *)
    translate : int -> int option;
        (** closed set id → original set id ([None] for added singletons) *)
    assignment : Assignment.t;  (** over the closed instance *)
    t_lp : int;  (** minimal LP-feasible horizon — lower bound on OPT *)
    makespan : int;  (** achieved integral makespan, ≤ 2·t_lp *)
    schedule : Schedule.t;
    rounding : R.stats;
  }

  val solve : Instance.t -> (outcome, string) result

  val solve_checked : Instance.t -> (outcome, Hs_error.t) result
  (** Same pipeline with the typed error preserved, so callers can
      distinguish infeasibility from internal failures.  No basis is
      carried between calls: every LP solve starts cold, or from the
      float pre-solve's guess under {!Hs_lp.Simplex.set_presolve}. *)
end

module Exact : module type of Make (Hs_lp.Field.Exact)
(** Certified pipeline: every bound is exact. *)

module Fast : module type of Make (Hs_lp.Field.Float)
(** Floating-point LP path — faster, used only for benchmarks. *)

(** {1 General (non-laminar) masks — §II} *)

type general_outcome = {
  machine_assignment : int array;  (** job → machine *)
  set_assignment : int array;  (** job → family index, via witness sets *)
  makespan : int;  (** of the lifted partitioned schedule *)
  lower_bound : int;  (** LP preemptive lower bound of the reduced instance *)
}

val solve_general : General_instance.t -> (general_outcome, string) result
(** The reduction-based algorithm whose makespan is within a factor 8 of
    the optimum (via the preemptive/non-preemptive chain of §II). *)

(** {1 Resilient entry point}

    {!solve_robust} runs the solvers behind deterministic resource
    budgets with graceful degradation: exact branch and bound (when a
    node budget is configured) → LP + LST rounding.  The LP path needs
    no stall policy of its own: each simplex solve switches from
    Dantzig to Bland's rule in place after a degenerate run
    ({!Hs_lp.Simplex}), so it terminates.  Every returned schedule has
    been re-certified by {!Hs_model.Schedule.validate} and is tagged
    with the provenance of the path that produced it. *)

type provenance =
  | Exact_optimal  (** proven optimum from branch and bound *)
  | Lp_approx  (** the 2-approximation ([makespan ≤ 2·T*]) *)

val provenance_to_string : provenance -> string
(** [Lp_approx] prints as [lp-rounding 2-approximation (dantzig
    pricing)], the simplex's default pricing. *)

type robust_outcome = {
  r_instance : Instance.t;
      (** the instance the assignment refers to: the original one on the
          exact path, its singleton closure on the LP path *)
  r_assignment : Assignment.t;
  r_makespan : int;
  r_lower_bound : int;  (** proven optimum, or the LP horizon [T*] *)
  r_schedule : Schedule.t;
  r_provenance : provenance;
  r_fallbacks : Hs_error.t list;
      (** degradations taken before the successful path, oldest first *)
  r_consumed : Budget.t;
      (** pivots actually spent by the LP stages: [lp_pivots] is [Some]
          only when the caller budgeted pivots, and [bb_nodes] is always
          [None] (branch-and-bound nodes are reported by {!Exact.stats},
          not metered here) *)
}

val solve_robust :
  ?budget:Budget.t ->
  ?on_exhausted:[ `Fail | `Fallback ] ->
  ?inject:Hs_error.stage ->
  Instance.t ->
  (robust_outcome, Hs_error.t) result
(** Solve under a resource budget.  With [`Fallback] (the default) a
    branch-and-bound exhaustion degrades to the LP path; with [`Fail] it
    surfaces as [Error (Budget_exhausted _)].  The LP path is the last
    one, so an exhaustion there always surfaces, naming the horizon
    where the shared pivot allowance ran out.  [inject] is the
    fault-injection hook of the test harness: the first time the
    pipeline enters that stage it behaves exactly as if its budget ran
    out there. *)

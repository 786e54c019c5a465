(** Feasibility-only sparse revised simplex: the library's one LP engine.

    Every LP in the library asks one question — is this system
    feasible? — so the engine exports one solve, {!Make.feasible}, which
    runs phase 1 (minimise the sum of the artificial variables) and
    answers with a vertex or a Farkas ray.  The problem's objective is
    ignored.  Functorised over {!Field.S}: with {!Field.Exact} both
    answers are certified by exact rational arithmetic, which is what
    the binary search of Theorem V.2 and the iterative-rounding engine
    of Section VI rely on.

    Solutions returned are {e basic} feasible solutions (vertices of the
    standard-form polyhedron): the Lenstra–Shmoys–Tardos rounding step
    depends on this to bound the fractional support.

    The constraint matrix is held as {!Sparse} rows with a product-form
    eta file for the basis inverse.  Reduced costs are priced once and
    then updated along each pivot row; in exact arithmetic this takes
    the same pivots as re-pricing every column each pivot.  Degeneracy
    is handled in place: after a run of degenerate Dantzig pivots the
    solve switches to Bland's rule for good, which cannot cycle, so
    every solve terminates and no caller needs a stall policy of its
    own.  Under {!set_presolve} an exact solve first guesses a basis
    with the float instance and skips phase 1 only when the guess is an
    exact witness of feasibility.  The differential suites check
    verdicts, vertices and rays against a dense tableau kept in
    [test/dense_oracle.ml], and pivots against the full re-pricing
    engine kept in [test/pricing_oracle.ml]. *)

type budget = {
  mutable pivots_left : int;
  total : int;  (** the initial allowance, for consumed-vs-allotted reporting *)
}
(** A deterministic pivot allowance, shared by every solver call that
    receives it: each pivot decrements the counter, and a solve attempted
    with an empty budget raises {!Pivot_limit}.  Field-independent, so
    one budget can meter a whole pipeline of LP solves. *)

val budget : int -> budget

val consumed : budget -> int
(** Pivots spent so far: [total - pivots_left]. *)

exception Pivot_limit
(** Raised mid-solve when the supplied {!budget} runs out. *)

val set_presolve : bool -> unit
(** Whether exact {!Make.feasible} solves first guess a basis with a
    floating-point solve.  The exact engine re-factorises the guessed
    columns and accepts them only as a witness — x_B ≥ 0 with every
    basic artificial at zero — in which case phase 1 is skipped;
    otherwise phase 1 runs cold, and a float "infeasible" is never
    trusted.  Accepted and rejected guesses are counted in
    [lp.warm_start.hits]/[misses], float solves in
    [lp.presolve.guesses].  The guess's pivots are charged to the
    solve's [budget].  Process-wide and off by default; the CLI's
    [--lp-presolve] enables it. *)

module Make (F : Field.S) : sig
  type solution = {
    x : F.t array;  (** values of the original decision variables *)
    basic : bool array;  (** [basic.(v)] iff variable [v] is basic *)
  }

  type pricing =
    | Bland  (** smallest eligible index — anti-cycling, more pivots *)
    | Dantzig
        (** most negative reduced cost — the default; falls back to
            Bland permanently after a run of degenerate pivots, so
            termination is still guaranteed *)

  type feasibility =
    | Feasible of solution
    | Infeasible_certificate of F.t array
        (** A Farkas ray [y], one entry per constraint in declaration
            order: [y] respects the row senses ([y_i ≤ 0] for ≤ rows,
            [y_i ≥ 0] for ≥ rows), prices every variable column
            non-positively and the right-hand side positively — so no
            [x ≥ 0] can satisfy the system.  With {!Field.Exact} this is
            a machine-checkable proof of infeasibility. *)

  val feasible :
    ?pricing:pricing ->
    ?budget:budget ->
    F.t Lp_problem.t ->
    feasibility
  (** Phase 1 from the cold all-artificial basis (or an accepted
      presolve witness): a basic feasible solution, or a Farkas ray
      recovered from the phase-1 multipliers.  [budget] meters pivots,
      raising {!Pivot_limit} when exhausted. *)

  val check_farkas : F.t Lp_problem.t -> F.t array -> bool
  (** Independent verification of a Farkas ray against the original
      problem statement. *)
end

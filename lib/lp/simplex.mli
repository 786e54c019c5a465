(** Two-phase sparse revised simplex: the library's one LP engine.

    Functorised over {!Field.S}: with {!Field.Exact} every answer
    (feasible / infeasible / optimal value) is certified by exact rational
    arithmetic, which is what the binary search of Theorem V.2 and the
    iterative-rounding engine of Section VI rely on.

    Solutions returned are {e basic} feasible solutions (vertices of the
    standard-form polyhedron): the Lenstra–Shmoys–Tardos rounding step
    depends on this to bound the fractional support.

    The constraint matrix is held as {!Sparse} rows with a product-form
    eta file for the basis inverse, and a feasibility solve can start
    from a proposed structural {!Basis.t} (see {!Make.feasible_basis});
    the library's only proposer is the float pre-solve of
    {!set_presolve}.  Reduced costs are priced once per phase and then
    updated along each pivot row; in exact arithmetic this takes the
    same pivots as re-pricing every column each pivot.  Degeneracy is
    handled in place: after a run of degenerate Dantzig pivots the
    solve switches to Bland's rule for good, which cannot cycle, so
    every solve terminates and no caller needs a stall policy of its
    own.  The
    differential suites check results and certificates against a dense
    tableau kept in [test/dense_oracle.ml], and pivots against the full
    re-pricing engine kept in [test/pricing_oracle.ml]. *)

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
(** Whether exact {!Make.feasible_basis} solves first guess a basis with
    a floating-point solve and propose it, promoted to exact Q, as their
    starting basis (the guess is always re-verified exactly; a float
    "infeasible" is never trusted).  The guess's pivots are charged to
    the solve's [budget].  Process-wide and off by default; the CLI's
    [--lp-presolve] enables it. *)

module Make (F : Field.S) : sig
  type solution = {
    x : F.t array;  (** values of the original decision variables *)
    objective : F.t;  (** objective value at [x] *)
    basic : bool array;  (** [basic.(v)] iff variable [v] is basic *)
  }

  type result = Optimal of solution | Infeasible | Unbounded

  type pricing =
    | Bland  (** smallest eligible index — anti-cycling, more pivots *)
    | Dantzig
        (** most negative reduced cost — the default; falls back to
            Bland permanently after a run of degenerate pivots, so
            termination is still guaranteed *)

  val solve :
    ?pricing:pricing ->
    ?budget:budget ->
    ?maximize:bool ->
    F.t Lp_problem.t ->
    result
  (** Minimises the objective by default, from the cold all-artificial
      basis.  [budget] meters pivots (raising {!Pivot_limit} when
      exhausted). *)

  val feasible :
    ?pricing:pricing ->
    ?budget:budget ->
    F.t Lp_problem.t ->
    solution option
  (** Phase-1 only: [Some] basic feasible solution, or [None].  The
      problem's objective is ignored. *)

  val feasible_basis :
    ?pricing:pricing ->
    ?budget:budget ->
    ?warm:Basis.t ->
    F.t Lp_problem.t ->
    (solution * Basis.t) option
  (** Like {!feasible}, additionally returning the final basis as a
      structural {!Basis.t} descriptor.  [warm] proposes a starting
      basis: it is re-factorised and re-verified in the solver's field —
      an accepted witness skips phase 1 entirely, a stale or corrupted
      proposal is repaired or rejected (never trusted), so the verdict
      is unaffected by its quality.  Attempts are counted in
      [lp.warm_start.hits]/[misses]/[repairs].  With {!set_presolve} an
      exact-field solve first runs a float solve and proposes {e its}
      basis instead; that is the only proposal the library makes, so
      without it every solve is cold. *)

  type feasibility =
    | Feasible of solution
    | Infeasible_certificate of F.t array
        (** A Farkas witness [y], one entry per constraint in declaration
            order: [y] respects the row senses ([y_i ≤ 0] for ≤ rows,
            [y_i ≥ 0] for ≥ rows), prices every variable column
            non-positively and the right-hand side positively — so no
            [x ≥ 0] can satisfy the system.  With {!Field.Exact} this is
            a machine-checkable proof of infeasibility. *)

  val feasible_certified :
    ?pricing:pricing ->
    ?budget:budget ->
    F.t Lp_problem.t ->
    feasibility
  (** Like {!feasible} but returns the Farkas certificate on the
      infeasible side (recovered from the phase-1 duals). *)

  val check_farkas : F.t Lp_problem.t -> F.t array -> bool
  (** Independent verification of a certificate against the original
      problem statement. *)

  (** {1 Optimality certificates}

      With {!Field.Exact}, a [Certified_optimal] result is a
      machine-checkable proof: the primal point is feasible, the dual
      multipliers are dual-feasible, and strong duality [cᵀx = bᵀy]
      pins the value. *)

  type certified = {
    primal : solution;
    duals : F.t array;  (** one multiplier per constraint, in order *)
  }

  type certified_result =
    | Certified_optimal of certified
    | Certified_infeasible of F.t array  (** Farkas witness, as above *)
    | Certified_unbounded

  val solve_certified : F.t Lp_problem.t -> certified_result
  (** Minimisation only. *)

  val check_optimal : F.t Lp_problem.t -> certified -> bool
  (** Verify a {!certified} optimum against the original problem:
      primal feasibility, dual feasibility (row-sense signs and
      [Aᵀy ≤ c]) and strong duality. *)
end

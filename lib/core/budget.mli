(** Deterministic resource budgets for the solver pipeline.

    A budget is a pair: simplex pivots and branch-and-bound nodes, the
    two unbounded loops.  [None] means unlimited.  The logarithmic
    horizon search has no cap of its own; its probes spend the pivot
    allowance.  Budgets are plain counters, so exhaustion is
    reproducible. *)

type t = {
  lp_pivots : int option;  (** total simplex pivots across all LP solves *)
  bb_nodes : int option;  (** branch-and-bound nodes expanded *)
}

val unlimited : t
val v : ?lp_pivots:int -> ?bb_nodes:int -> unit -> t

val of_units : int -> t
(** The CLI's single [--budget K] knob: [K] pivots and [K] nodes. *)

val of_deadline_ms : units_per_ms:int -> int -> t
(** Deterministic deadline-to-budget exchange: a client deadline of
    [ms] milliseconds buys [ms * units_per_ms] budget units
    ({!of_units}; saturating, clamped at 0).  A wall clock cannot be
    consulted mid-solve without losing reproducibility, so the service
    enforces deadlines through this fixed rate — the same deadline
    always exhausts at the same pivot/node.  Raises [Invalid_argument]
    when [units_per_ms < 1]. *)

val meet : t -> t -> t
(** Pointwise minimum of two budgets ([None] = unlimited): the tighter
    cap wins in each dimension. *)

val consumed : Hs_lp.Simplex.budget option -> t
(** How much of a live pivot allowance, shared by every LP call of one
    solve, has been spent so far: [lp_pivots = Some spent] when there is
    an allowance, [None] when pivots are unlimited.  [bb_nodes] is
    always [None]: branch-and-bound node consumption is reported by the
    solver itself ({!Exact.stats}). *)

val record_metrics : Hs_lp.Simplex.budget option -> unit
(** Publish a live pivot allowance to the {!Hs_obs.Metrics} registry as
    the [budget.pivots.limit] / [budget.pivots.consumed] gauges;
    nothing when pivots are unlimited. *)

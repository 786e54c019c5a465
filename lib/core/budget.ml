(** Deterministic resource budgets for the solver pipeline.

    A budget caps the two unbounded loops of the pipeline — simplex
    pivots and branch-and-bound nodes — so a pathological instance
    degrades or fails in bounded time instead of wedging the process.
    The horizon search needs no cap of its own: it is logarithmic, and
    every probe's pivots are charged to the same allowance.  Budgets
    are plain counters, so every run is reproducible: the same instance
    with the same budget exhausts at the same point. *)

type t = {
  lp_pivots : int option;  (** total simplex pivots across all LP solves *)
  bb_nodes : int option;  (** branch-and-bound nodes expanded *)
}

let unlimited = { lp_pivots = None; bb_nodes = None }

let v ?lp_pivots ?bb_nodes () = { lp_pivots; bb_nodes }

(* The CLI's single --budget knob: K units buy K pivots and K nodes. *)
let of_units k =
  let k = Stdlib.max 0 k in
  { lp_pivots = Some k; bb_nodes = Some k }

(* A wall-clock deadline cannot be enforced deterministically, so the
   service converts it into budget units at a fixed exchange rate: the
   same deadline always buys the same number of pivots and nodes, and a
   deadline-capped solve exhausts at the same point on every run.
   Multiplication saturates instead of wrapping for huge deadlines. *)
let of_deadline_ms ~units_per_ms ms =
  if units_per_ms < 1 then invalid_arg "Budget.of_deadline_ms: units_per_ms must be >= 1";
  let ms = Stdlib.max 0 ms in
  let units =
    if ms > max_int / units_per_ms then max_int else ms * units_per_ms
  in
  of_units units

(* Pointwise minimum: the tighter of two caps in each dimension, [None]
   acting as infinity.  Used to combine a per-request budget with a
   deadline-derived one. *)
let meet a b =
  let dim x y =
    match (x, y) with
    | None, c | c, None -> c
    | Some p, Some q -> Some (Stdlib.min p q)
  in
  { lp_pivots = dim a.lp_pivots b.lp_pivots; bb_nodes = dim a.bb_nodes b.bb_nodes }

(* Spent-so-far view of the shared pivot allowance.  Node consumption
   lives in the branch-and-bound stats (the budget only hands the limit
   over), so it is reported as [None] here. *)
let consumed pivots =
  { lp_pivots = Option.map Hs_lp.Simplex.consumed pivots; bb_nodes = None }

let record_metrics = function
  | None -> ()
  | Some p ->
      Hs_obs.Metrics.set (Hs_obs.Metrics.gauge "budget.pivots.limit") p.Hs_lp.Simplex.total;
      Hs_obs.Metrics.set (Hs_obs.Metrics.gauge "budget.pivots.consumed")
        (Hs_lp.Simplex.consumed p)

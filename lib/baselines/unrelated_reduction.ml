(** The reduction from hierarchical to unrelated machines used throughout
    the paper's analysis (Section II, Example V.1 and Theorem V.2): keep,
    for each job and machine, the processing time of the {e minimal}
    admissible set containing the machine — by monotonicity this is the
    cheapest admissible choice.

    Example V.1 shows the integral optimum of the reduced instance can
    drift towards a factor 2 above the hierarchical optimum; experiment
    F1 reproduces that gap curve. *)

open Hs_model
open Hs_laminar

(** [reduce inst] is the unrelated instance [I_u]; machines contained in
    no admissible set get ∞ everywhere. *)
let reduce inst =
  let lam = Instance.laminar inst in
  let m = Laminar.m lam in
  let n = Instance.njobs inst in
  let times =
    Array.init n (fun j ->
        Array.init m (fun i ->
            match Laminar.minimal_containing lam i with
            | Some s -> Instance.ptime inst ~job:j ~set:s
            | None -> Ptime.Inf))
  in
  Instance.unrelated ~m times

(** Optimal makespan of the reduced instance on small inputs; [None] when
    infeasible. *)
let optimal_reduced ?node_limit inst =
  Hs_core.Exact.optimal_makespan ?node_limit (reduce inst)

(* The Theorem V.2 horizon search with the bracket it had before the
   greedy upper bound: bisection over [max_j min_α p, Σ_j min_α p] with
   a cold [lp_feasible] probe at every midpoint.  The oracle of
   test_search_diff.ml. *)

open Hs_model
module I = Hs_core.Ilp.Make (Hs_lp.Field.Exact)

(* [(max_j min_α p, Σ_j min_α p)], or [None] when some job has no
   finite mask. *)
let bounds inst =
  match Instance.total_min_volume inst with
  | None -> None
  | Some volume ->
      let lo = ref 0 in
      for j = 0 to Instance.njobs inst - 1 do
        lo := Stdlib.max !lo (Ptime.value_exn (Instance.min_ptime inst j))
      done;
      Some (!lo, volume)

let min_feasible_t inst =
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      match I.lp_feasible inst ~tmax:mid with
      | Some x -> search lo (mid - 1) (Some (mid, x))
      | None -> search (mid + 1) hi best
  in
  Option.bind (bounds inst) (fun (lo, hi) -> search lo hi None)

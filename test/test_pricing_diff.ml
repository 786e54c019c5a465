(* Differential suite for incremental pricing: Hs_lp.Simplex, which
   prices its reduced costs once per solve and then updates them along
   each pivot row, against the full re-pricing engine it replaced
   (pricing_oracle.ml), which runs a fresh BTRAN of c_B and re-prices
   every column on every pivot.  In exact Q the two must take the same
   pivots, so on every input, under Dantzig and under Bland, [feasible]
   must agree exactly: the verdict, x, the basic flags, the Farkas y,
   and the pivots consumed through a Simplex.budget.

   Inputs: the LP fixtures and the 210 seeded LPs of test_revised.ml,
   each with its optimum pins (the cut at z* and just past it), and the
   (IP-3) relaxations a certified solve builds, at every horizon the
   search probes, at T* − 1 (the checker's Farkas solve) and for the
   unrelated restriction at T* (the pipeline's re-solve), over the
   oracle corpus and the three certify-batch topologies.  A failing
   instance is shrunk to a minimal one before it is reported.

   With QCHECK_LONG=1 each property draws 100 times its usual count:
   QCHECK_LONG=1 dune exec test/test_main.exe -- test pricing_diff *)

open Hs_lp
open Hs_model
module Q = Hs_numeric.Q
module SQ = Simplex.Make (Field.Exact)
module O = Pricing_oracle
module Ilp = Hs_core.Ilp.Make (Field.Exact)
module Approx = Hs_core.Approx.Exact

let qs a = String.concat " " (Array.to_list (Array.map Q.to_string a))
let flags a = String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))
let sol x basic = Printf.sprintf "feasible x=[%s] basic=%s" (qs x) (flags basic)

(* Run one solve under a fresh budget and render the outcome with the
   pivots it consumed; an exception is an outcome too.  The budget is
   ten times the largest pivot count these inputs need (under 500,
   Bland included) and ends a solve that cycles within a second. *)
let metered f =
  let b = Simplex.budget 5_000 in
  let out = try f b with e -> "raised " ^ Printexc.to_string e in
  Printf.sprintf "%s; pivots=%d" out (Simplex.consumed b)

let engine pricing p =
  metered @@ fun b ->
  match SQ.feasible ~pricing ~budget:b p with
  | SQ.Feasible s -> sol s.x s.basic
  | SQ.Infeasible_certificate y -> Printf.sprintf "farkas y=[%s]" (qs y)

let oracle pricing p =
  metered @@ fun b ->
  match O.feasible ~pricing ~budget:b p with
  | O.Feasible s -> sol s.x s.basic
  | O.Infeasible_certificate y -> Printf.sprintf "farkas y=[%s]" (qs y)

(* [Error] names the first rule on which the two engines differ, with
   both transcripts. *)
let agree p =
  let rules = [ ("Dantzig", SQ.Dantzig, O.Dantzig); ("Bland", SQ.Bland, O.Bland) ] in
  let rec go = function
    | [] -> Ok ()
    | (rule, ours, theirs) :: rest ->
        let got = engine ours p and want = oracle theirs p in
        if got = want then go rest
        else Error (Printf.sprintf "under %s:\n  engine %s\n  oracle %s" rule got want)
  in
  go rules

let check_agree ?maximize label p =
  List.iter
    (fun (l, sys, _) ->
      match agree sys with Ok () -> () | Error e -> Alcotest.failf "%s: %s" l e)
    (Test_revised.pins ?maximize label p)

let test_fixtures () =
  List.iter (fun (label, maximize, p) -> check_agree ~maximize label p) Test_revised.fixtures

let test_seeded () =
  for seed = 0 to 209 do
    check_agree (Printf.sprintf "seeded LP %d" seed) (Test_revised.seeded_lp seed)
  done

(* ---- the relaxations of a certified solve ------------------------------ *)

(* The LPs a certified solve of [inst] builds: the (IP-3) relaxation of
   the singleton-closed instance at every horizon the search probes (the
   bisection over Ilp.t_bounds, following the engine's verdicts), of
   which the last feasible one is also the checker's re-solve at T*; the
   checker's Farkas solve at T* − 1 when that relaxation exists; and
   the unrelated restriction at T*. *)
let relaxations inst =
  let closed = fst (Instance.with_singletons inst) in
  let at what inst t =
    Option.to_list
      (Option.map
         (fun (p, _) -> (Printf.sprintf "%s at T=%d" what t, p))
         (Ilp.relaxation inst ~tmax:t))
  in
  match Ilp.t_bounds closed with
  | None -> []
  | Some (lo, hi) -> (
      let rec search lo hi best probes =
        if lo > hi then (best, List.rev probes)
        else
          let mid = (lo + hi) / 2 in
          let probes = at "probe" closed mid @ probes in
          if Ilp.lp_feasible closed ~tmax:mid <> None then search lo (mid - 1) (Some mid) probes
          else search (mid + 1) hi best probes
      in
      match search lo hi None [] with
      | None, probes -> probes
      | Some t, probes ->
          probes
          @ (if t > 0 then at "T*-1" closed (t - 1) else [])
          @ at "restriction" (Approx.unrelated_restriction closed) t)

let agree_instance inst =
  let rec go = function
    | [] -> Ok ()
    | (label, p) :: rest -> (
        match agree p with Ok () -> go rest | Error e -> Error (label ^ ", " ^ e))
  in
  go (relaxations inst)

let prop name ~count gen =
  QCheck.Test.make ~name ~count ~long_factor:100 Test_util.seed_arb (fun seed ->
      let inst = gen seed in
      match agree_instance inst with
      | Ok () -> true
      | Error _ ->
          let failing i = Result.is_error (agree_instance i) in
          let minimal = Hs_workloads.Shrink.minimize ~still_failing:failing inst in
          let e = Result.fold ~ok:(fun () -> "") ~error:Fun.id (agree_instance minimal) in
          QCheck.Test.fail_reportf "seed %d, shrunk to:\n%s%s" seed
            (Instance_io.to_string minimal) e)

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let q t = QCheck_alcotest.to_alcotest t in
  ( "pricing_diff",
    [
      u "LP fixtures = full re-pricing" test_fixtures;
      u "210 seeded LPs = full re-pricing" test_seeded;
      q
        (prop "oracle corpus relaxations = full re-pricing" ~count:40
           Hs_workloads.Oracle.instance_of_seed);
      q
        (prop "certify-batch relaxations = full re-pricing" ~count:6
           Test_search_diff.certify_batch);
    ] )

(* Differential suite for incremental pricing: Hs_lp.Simplex, which
   prices its reduced costs once per optimisation and then updates them
   along each pivot row, against the full re-pricing engine it replaced
   (pricing_oracle.ml), which runs a fresh BTRAN of c_B and re-prices
   every column on every pivot.  In exact Q the two must take the same
   pivots, so on every input, under Dantzig and under Bland, [solve],
   [feasible_basis] and [feasible_certified] must agree exactly: the
   result kind, x, the basic flags, the exact objective, the returned
   Basis.t, the Farkas y, and the pivots consumed through a
   Simplex.budget.

   Inputs: the LP fixtures and the 210 seeded LPs of test_revised.ml,
   and the (IP-3) relaxations a certified solve builds, at every horizon
   the search probes, at T* − 1 (the checker's Farkas solve) and for the
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

let sol x basic objective =
  Printf.sprintf "x=[%s] basic=%s objective=%s" (qs x) (flags basic) (Q.to_string objective)

let basis b =
  String.concat " "
    (List.map (function Basis.Var v -> Printf.sprintf "v%d" v | Basis.Aux i -> Printf.sprintf "a%d" i) b)

(* Run one entry point under a fresh budget and render the outcome with
   the pivots it consumed; an exception is an outcome too.  The budget
   is ten times the largest pivot count these inputs need (under 500,
   Bland included) and ends a solve that cycles within a second. *)
let metered f =
  let b = Simplex.budget 5_000 in
  let out = try f b with e -> "raised " ^ Printexc.to_string e in
  Printf.sprintf "%s; pivots=%d" out (Simplex.consumed b)

type entry = Solve | Feasible_basis | Feasible_certified

let entry_name = function
  | Solve -> "solve"
  | Feasible_basis -> "feasible_basis"
  | Feasible_certified -> "feasible_certified"

let engine ~maximize pricing p entry =
  metered @@ fun b ->
  match entry with
  | Solve -> (
      match SQ.solve ~pricing ~budget:b ~maximize p with
      | SQ.Optimal s -> "optimal " ^ sol s.x s.basic s.objective
      | SQ.Infeasible -> "infeasible"
      | SQ.Unbounded -> "unbounded")
  | Feasible_basis -> (
      match SQ.feasible_basis ~pricing ~budget:b p with
      | Some (s, bs) ->
          Printf.sprintf "feasible %s basis=[%s]" (sol s.x s.basic s.objective) (basis bs)
      | None -> "infeasible")
  | Feasible_certified -> (
      match SQ.feasible_certified ~pricing ~budget:b p with
      | SQ.Feasible s -> "feasible " ^ sol s.x s.basic s.objective
      | SQ.Infeasible_certificate y -> Printf.sprintf "farkas y=[%s]" (qs y))

let oracle ~maximize pricing p entry =
  metered @@ fun b ->
  match entry with
  | Solve -> (
      match O.solve ~pricing ~budget:b ~maximize p with
      | O.Optimal s -> "optimal " ^ sol s.x s.basic s.objective
      | O.Infeasible -> "infeasible"
      | O.Unbounded -> "unbounded")
  | Feasible_basis -> (
      match O.feasible_basis ~pricing ~budget:b p with
      | Some (s, bs) ->
          Printf.sprintf "feasible %s basis=[%s]" (sol s.x s.basic s.objective) (basis bs)
      | None -> "infeasible")
  | Feasible_certified -> (
      match O.feasible_certified ~pricing ~budget:b p with
      | O.Feasible s -> "feasible " ^ sol s.x s.basic s.objective
      | O.Infeasible_certificate y -> Printf.sprintf "farkas y=[%s]" (qs y))

(* [Error] names the first rule and entry point on which the two
   engines differ, with both transcripts. *)
let agree ?(maximize = false) ?(entries = [ Solve; Feasible_basis; Feasible_certified ]) p =
  let rules = [ ("Dantzig", SQ.Dantzig, O.Dantzig); ("Bland", SQ.Bland, O.Bland) ] in
  let cases = List.concat_map (fun rule -> List.map (fun e -> (rule, e)) entries) rules in
  let rec go = function
    | [] -> Ok ()
    | ((rule, ours, theirs), entry) :: rest ->
        let got = engine ~maximize ours p entry and want = oracle ~maximize theirs p entry in
        if got = want then go rest
        else
          Error
            (Printf.sprintf "%s under %s:\n  engine %s\n  oracle %s" (entry_name entry) rule
               got want)
  in
  go cases

let check_agree ?maximize label p =
  match agree ?maximize p with Ok () -> () | Error e -> Alcotest.failf "%s: %s" label e

let test_fixtures () =
  List.iter (fun (label, maximize, p) -> check_agree ~maximize label p) Test_revised.fixtures

let test_seeded () =
  for seed = 0 to 209 do
    check_agree (Printf.sprintf "seeded LP %d" seed) (Test_revised.seeded_lp seed)
  done

(* ---- the relaxations of a certified solve ------------------------------ *)

(* The LPs a certified solve of [inst] builds, each with the entry
   point that solves it: the (IP-3) relaxation of the singleton-closed
   instance at every horizon the search probes (the bisection over
   Ilp.t_bounds, following the engine's verdicts; [feasible_basis]),
   the checker's re-solve at T* ([solve] with no objective) and its
   Farkas solve at T* − 1 when that relaxation exists
   ([feasible_certified]), and the unrelated restriction at T*
   ([feasible_basis]). *)
let relaxations inst =
  let closed = fst (Instance.with_singletons inst) in
  let at what entry inst t =
    Option.to_list
      (Option.map
         (fun (p, _) -> (Printf.sprintf "%s at T=%d" what t, entry, p))
         (Ilp.relaxation inst ~tmax:t))
  in
  match Ilp.t_bounds closed with
  | None -> []
  | Some (lo, hi) -> (
      let rec search lo hi best probes =
        if lo > hi then (best, List.rev probes)
        else
          let mid = (lo + hi) / 2 in
          let probes = at "probe" Feasible_basis closed mid @ probes in
          if Ilp.lp_feasible closed ~tmax:mid <> None then search lo (mid - 1) (Some mid) probes
          else search (mid + 1) hi best probes
      in
      match search lo hi None [] with
      | None, probes -> probes
      | Some t, probes ->
          probes
          @ at "check" Solve closed t
          @ (if t > 0 then at "T*-1" Feasible_certified closed (t - 1) else [])
          @ at "restriction" Feasible_basis (Approx.unrelated_restriction closed) t)

let agree_instance inst =
  let rec go = function
    | [] -> Ok ()
    | (label, entry, p) :: rest -> (
        match agree ~entries:[ entry ] p with
        | Ok () -> go rest
        | Error e -> Error (label ^ ", " ^ e))
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

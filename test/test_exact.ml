(* Tests for the exact branch-and-bound solver. *)

open Hs_model
open Hs_core
open Hs_workloads

let test_examples () =
  (match Exact.optimal (Families.example_ii1 ()) with
  | Some (a, span, stats) ->
      Alcotest.(check int) "Example II.1 opt" 2 span;
      Alcotest.(check bool) "proven" true stats.proven;
      Alcotest.(check bool) "assignment feasible at opt" true
        (Assignment.feasible (Families.example_ii1 ()) a ~tmax:span)
  | None -> Alcotest.fail "Example II.1 infeasible");
  match Exact.optimal (Families.example_v1 5) with
  | Some (_, span, _) -> Alcotest.(check int) "Example V.1 opt" 4 span
  | None -> Alcotest.fail "Example V.1 infeasible"

let test_infeasible_instance () =
  let inst = Instance.unrelated ~m:2 [| [| Ptime.Inf; Ptime.Inf |] |] in
  Alcotest.(check bool) "no assignment" true (Exact.optimal inst = None);
  Alcotest.(check bool) "brute force agrees" true (Exact.brute_force inst = None)

let test_node_limit_returns_heuristic () =
  (* With a zero node budget the very first search node trips the limit,
     so the result is the (feasible) warm start, flagged unproven. *)
  let rng = Rng.create 12345 in
  let lam = Hs_laminar.Topology.semi_partitioned 4 in
  let inst = Generators.hierarchical rng ~lam ~n:8 ~base:(1, 8) ~overhead:0.2 () in
  match Exact.optimal ~node_limit:0 inst with
  | Some (a, span, stats) ->
      Alcotest.(check bool) "not proven" false stats.proven;
      Alcotest.(check bool) "still feasible" true (Assignment.feasible inst a ~tmax:span)
  | None -> Alcotest.fail "warm start must provide a solution"

let test_empty_instance () =
  (* Zero jobs: optimum 0. *)
  let lam = Hs_laminar.Topology.semi_partitioned 2 in
  let inst = Instance.make_exn lam [||] in
  match Exact.optimal inst with
  | Some (_, span, stats) ->
      Alcotest.(check int) "zero makespan" 0 span;
      Alcotest.(check bool) "proven" true stats.proven
  | None -> Alcotest.fail "empty instance must be trivially solvable"

let prop_bnb_matches_brute_force =
  QCheck.Test.make ~name:"B&B = brute force on tiny instances" ~count:150
    Test_util.seed_arb (fun seed ->
      let inst = Test_util.random_instance ~max_m:3 ~max_n:4 seed in
      match (Exact.optimal inst, Exact.brute_force inst) with
      | Some (_, a, stats), Some (_, b) -> stats.proven && a = b
      | None, None -> true
      | _ -> false)

let prop_warm_start_respected =
  QCheck.Test.make ~name:"initial bound only improves" ~count:60 Test_util.seed_arb
    (fun seed ->
      let inst = Test_util.random_instance ~max_m:3 ~max_n:5 seed in
      match Exact.optimal inst with
      | None -> false
      | Some (a, span, _) -> (
          match Exact.optimal ~initial:(a, span) inst with
          | Some (_, span', stats') -> stats'.proven && span' = span
          | None -> false))

let prop_optimum_feasible_and_minimal =
  QCheck.Test.make ~name:"optimum is feasible; random assignments never beat it"
    ~count:100 Test_util.seed_arb (fun seed ->
      let inst, a = Test_util.random_assigned ~max_m:4 ~max_n:5 seed in
      match Exact.optimal inst with
      | None -> false
      | Some (best, span, _) ->
          Assignment.feasible inst best ~tmax:span
          && Assignment.min_makespan inst a >= span)

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let qt t = QCheck_alcotest.to_alcotest t in
  ( "exact",
    [
      u "paper examples" test_examples;
      u "infeasible instance" test_infeasible_instance;
      u "node limit" test_node_limit_returns_heuristic;
      u "empty instance" test_empty_instance;
      qt prop_bnb_matches_brute_force;
      qt prop_warm_start_respected;
      qt prop_optimum_feasible_and_minimal;
    ] )

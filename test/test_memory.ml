(* Tests for the iterative-rounding engine and the Section VI memory
   models (Theorems VI.1 and VI.3). *)

open Hs_model
open Hs_core
open Hs_workloads
module Q = Hs_numeric.Q
module IR = Iterative_rounding

let qi = Q.of_int

(* -- the generic engine on hand-crafted problems ----------------------- *)

let test_engine_trivial () =
  (* Two jobs, one option each: engine must fix both and report usage. *)
  let vars =
    [
      { IR.job = 0; opt = 7; col = [ (0, qi 2) ] };
      { IR.job = 1; opt = 9; col = [ (0, qi 3) ] };
    ]
  in
  let p = { IR.njobs = 2; vars; bounds = [| qi 10 |]; names = [| "row" |] } in
  match IR.solve p (IR.Support_at_most 2) with
  | Error e -> Alcotest.failf "engine failed: %s" e
  | Ok o ->
      Alcotest.(check (array int)) "choices" [| 7; 9 |] o.choice;
      Alcotest.(check string) "usage" "5" (Q.to_string o.usage.(0));
      Alcotest.(check int) "no fallback" 0 o.fallback_drops

let test_engine_integral_lp () =
  (* Capacity forces each job to its own row; LP is already integral. *)
  let vars =
    [
      { IR.job = 0; opt = 0; col = [ (0, qi 1) ] };
      { IR.job = 0; opt = 1; col = [ (1, qi 1) ] };
      { IR.job = 1; opt = 0; col = [ (0, qi 1) ] };
      { IR.job = 1; opt = 1; col = [ (1, qi 1) ] };
    ]
  in
  let p = { IR.njobs = 2; vars; bounds = [| qi 1; qi 1 |]; names = [| "a"; "b" |] } in
  match IR.solve p (IR.Support_at_most 2) with
  | Error e -> Alcotest.failf "engine failed: %s" e
  | Ok o ->
      Alcotest.(check bool) "valid assignment" true
        (o.choice.(0) <> o.choice.(1));
      Alcotest.(check bool) "no violation" true
        (Array.for_all (fun u -> Q.leq u (qi 1)) o.usage)

let test_engine_needs_drop () =
  (* One row shared by two jobs with capacity 1 but both jobs need 1:
     the LP is fractional-infeasible unless the other options are used;
     remove them to force a drop. *)
  let vars =
    [
      { IR.job = 0; opt = 0; col = [ (0, qi 1) ] };
      { IR.job = 0; opt = 1; col = [ (1, qi 1) ] };
      { IR.job = 1; opt = 0; col = [ (0, qi 1) ] };
      { IR.job = 1; opt = 1; col = [ (1, qi 1) ] };
    ]
  in
  (* capacity 3/2 on both rows: fractional solution 1/2 everywhere is a
     vertex region; rounding must finish with bounded violation. *)
  let p =
    { IR.njobs = 2; vars; bounds = [| Q.of_ints 3 2; Q.of_ints 3 2 |]; names = [| "a"; "b" |] }
  in
  match IR.solve p (IR.Support_at_most 2) with
  | Error e -> Alcotest.failf "engine failed: %s" e
  | Ok o ->
      Alcotest.(check bool) "all jobs assigned" true
        (Array.for_all (fun c -> c >= 0) o.choice);
      (* violation bounded by bound + 2 * max coefficient = 3/2 + 2 *)
      Alcotest.(check bool) "bounded violation" true
        (Array.for_all (fun u -> Q.leq u (Q.of_ints 7 2)) o.usage)

let test_engine_rejects_bad_bounds () =
  let p = { IR.njobs = 1; vars = [ { IR.job = 0; opt = 0; col = [] } ]; bounds = [| Q.zero |]; names = [| "z" |] } in
  match IR.solve p (IR.Support_at_most 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-positive bound accepted"

let test_engine_infeasible () =
  (* job with no options at all *)
  let p = { IR.njobs = 1; vars = []; bounds = [| qi 1 |]; names = [| "r" |] } in
  match IR.solve p (IR.Support_at_most 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "jobless problem accepted"

(* -- Model 1 ----------------------------------------------------------- *)

let model1_case seed =
  let rng = Rng.create seed in
  let m = 2 + Rng.int rng 3 in
  let inst = Generators.semi_partitioned_load rng ~m ~load:0.4 ~pmin:1 ~pmax:6 () in
  let payload = Generators.model1_payload rng inst ~smax:4 ~slack:1.4 in
  (inst, payload)

let prop_model1_bicriteria =
  QCheck.Test.make ~name:"Model 1: Theorem VI.1 bicriteria (3T, 3B)" ~count:40
    Test_util.seed_arb (fun seed ->
      let inst, payload = model1_case seed in
      match Memory.solve_model1 inst payload with
      | Error _ -> QCheck.assume_fail () (* payload made the LP infeasible *)
      | Ok r ->
          Schedule.is_valid inst r.assignment r.schedule
          && Q.leq r.makespan_factor (qi 3)
          && Q.leq r.max_capacity_factor (qi 3))

let test_model1_memory_actually_binds () =
  (* A tight-budget instance where ignoring memory overloads a machine:
     two jobs, each needs the whole budget of the (only fast) machine. *)
  let inst =
    Instance.semi_partitioned
      ~global:[| Ptime.fin 10; Ptime.fin 10 |]
      ~local:[| [| Ptime.fin 1; Ptime.fin 9 |]; [| Ptime.fin 1; Ptime.fin 9 |] |]
  in
  let payload =
    { Memory.budgets = [| 1; 1 |]; space = [| [| 1; 1 |]; [| 1; 1 |] |] }
  in
  match Memory.solve_model1 inst payload with
  | Error e -> Alcotest.failf "model1 failed: %s" e
  | Ok r ->
      (* Each machine can hold triple budget = 3 jobs; but memory spreads
         the two jobs rather than stacking both on machine 0. *)
      Alcotest.(check bool) "memory factor <= 3" true (Q.leq r.max_capacity_factor (qi 3));
      Alcotest.(check bool) "valid" true (Schedule.is_valid inst r.assignment r.schedule)

let test_model1_infeasible_budget () =
  let inst =
    Instance.semi_partitioned ~global:[| Ptime.fin 2 |] ~local:[| [| Ptime.fin 1 |] |]
  in
  let payload = { Memory.budgets = [| 0 |]; space = [| [| 1 |] |] } in
  match Memory.solve_model1 inst payload with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero budget accepted"

(* -- Model 2 ----------------------------------------------------------- *)

let model2_case seed =
  let rng = Rng.create seed in
  let fanouts =
    match Rng.int rng 3 with
    | 0 -> [ 2; 2 ]
    | 1 -> [ 2; 2; 2 ]
    | _ -> [ 3; 2 ]
  in
  let lam = Hs_laminar.Topology.balanced fanouts in
  let n = 3 + Rng.int rng 5 in
  let inst = Generators.hierarchical rng ~lam ~n ~base:(1, 5) ~overhead:0.2 () in
  let payload = Generators.model2_payload rng inst ~mu:(Q.of_ints 2 1) in
  (inst, payload, Hs_laminar.Laminar.nlevels lam)

let prop_model2_sigma =
  QCheck.Test.make ~name:"Model 2: Theorem VI.3 sigma = 2 + H_k" ~count:30
    Test_util.seed_arb (fun seed ->
      let inst, payload, k = model2_case seed in
      match Memory.solve_model2 inst payload with
      | Error _ -> QCheck.assume_fail ()
      | Ok r ->
          let sigma = Memory.sigma_bound ~k in
          Schedule.is_valid inst r.assignment r.schedule
          && Q.leq r.makespan_factor sigma
          && Q.leq r.max_capacity_factor sigma
          && r.fallback_drops = 0)

let test_model2_requires_tree () =
  let inst = Instance.unrelated ~m:2 [| [| Ptime.fin 1; Ptime.fin 1 |] |] in
  let payload = { Memory.mu = qi 2; sizes = [| Q.one |] } in
  match Memory.solve_model2 inst payload with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forest accepted by Model 2"

let test_model2_requires_mu_gt_one () =
  let lam = Hs_laminar.Topology.balanced [ 2; 2 ] in
  let rng = Rng.create 3 in
  let inst = Generators.hierarchical rng ~lam ~n:3 ~base:(1, 3) () in
  let payload = { Memory.mu = Q.one; sizes = Array.make 3 Q.one } in
  match Memory.solve_model2 inst payload with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mu = 1 accepted"

let test_sigma_bound_k2 () =
  (* k = 2: the paper's sharper bound is 3 + 1/m; the generic bound we
     check against is 2 + H_2 = 7/2 >= 3 + 1/m for m >= 2. *)
  Alcotest.(check string) "sigma(2)" "7/2" (Q.to_string (Memory.sigma_bound ~k:2));
  Alcotest.(check string) "sigma(3)" "23/6" (Q.to_string (Memory.sigma_bound ~k:3))

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let qt t = QCheck_alcotest.to_alcotest t in
  ( "memory",
    [
      u "engine: trivial" test_engine_trivial;
      u "engine: integral LP" test_engine_integral_lp;
      u "engine: fractional with drops" test_engine_needs_drop;
      u "engine: rejects bad bounds" test_engine_rejects_bad_bounds;
      u "engine: infeasible" test_engine_infeasible;
      u "Model 1: memory binds" test_model1_memory_actually_binds;
      u "Model 1: infeasible budget" test_model1_infeasible_budget;
      u "Model 2: requires tree" test_model2_requires_tree;
      u "Model 2: requires mu > 1" test_model2_requires_mu_gt_one;
      u "sigma bound values" test_sigma_bound_k2;
      qt prop_model1_bicriteria;
      qt prop_model2_sigma;
    ] )

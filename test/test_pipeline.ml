(* Tests for the Section V pipeline: the (IP-3) relaxation and its binary
   search, the Lemma V.1 push-down, the LST rounding and the end-to-end
   2-approximation of Theorem V.2. *)

open Hs_model
open Hs_core
open Hs_workloads
module F = Hs_lp.Field.Exact
module I = Ilp.Make (F)
module P = Pushdown.Make (F)
module R = Lst_rounding.Make (F)
module Q = Hs_numeric.Q

let closed_of seed =
  let inst = Test_util.random_instance seed in
  fst (Instance.with_singletons inst)

let test_example_ii1_lp () =
  let inst, _ = Instance.with_singletons (Families.example_ii1 ()) in
  (* T=2 feasible, T=1 not (job 2 has no mask of time <= 1). *)
  Alcotest.(check bool) "feasible at 2" true (I.lp_feasible inst ~tmax:2 <> None);
  Alcotest.(check bool) "infeasible at 1" true (I.lp_feasible inst ~tmax:1 = None);
  match I.min_feasible_t inst with
  | Some (t, _) -> Alcotest.(check int) "t_lp = 2" 2 t
  | None -> Alcotest.fail "no feasible horizon"

let test_t_bounds () =
  let inst = Families.example_ii1 () in
  (match I.t_bounds inst with
  | Some (lo, hi) ->
      Alcotest.(check int) "lo = max min p" 2 lo;
      (* The greedy partitioned schedule is optimal here, at 3; the
         total min volume is 4. *)
      Alcotest.(check int) "hi = greedy partitioned makespan"
        Families.example_ii1_unrelated_opt hi
  | None -> Alcotest.fail "bounds expected");
  let dead = Instance.unrelated ~m:1 [| [| Ptime.Inf |] |] in
  Alcotest.(check bool) "unschedulable job detected" true (I.t_bounds dead = None);
  Alcotest.(check bool) "min_feasible_t rejects" true (I.min_feasible_t dead = None)

let prop_lp_relaxes_integral =
  (* The LP horizon never exceeds any integral assignment's makespan. *)
  QCheck.Test.make ~name:"t_lp lower-bounds integral makespans" ~count:150
    Test_util.seed_arb (fun seed ->
      let inst, a = Test_util.random_assigned seed in
      let closed, _ = Instance.with_singletons inst in
      match I.min_feasible_t closed with
      | None -> false
      | Some (t, _) -> t <= Assignment.min_makespan inst a)

let prop_lp_monotone_in_t =
  QCheck.Test.make ~name:"LP feasibility monotone in T" ~count:80 Test_util.seed_arb
    (fun seed ->
      let inst = closed_of seed in
      match I.min_feasible_t inst with
      | None -> false
      | Some (t, _) ->
          I.lp_feasible inst ~tmax:(t + 1) <> None
          && I.lp_feasible inst ~tmax:(t + 7) <> None
          && (t = 0 || I.lp_feasible inst ~tmax:(t - 1) = None))

let prop_lower_bound_certified =
  (* The binary search's lower side carries a Farkas proof: at t_lp - 1
     the relaxation is certifiably infeasible. *)
  QCheck.Test.make ~name:"t_lp - 1 infeasibility is certified" ~count:60
    Test_util.seed_arb (fun seed ->
      let inst = closed_of seed in
      match I.min_feasible_t inst with
      | None -> false
      | Some (t, _) -> t = 0 || I.certified_infeasible inst ~tmax:(t - 1))

let prop_lp_solution_feasible =
  QCheck.Test.make ~name:"LP solutions satisfy (IP-3)" ~count:100 Test_util.seed_arb
    (fun seed ->
      let inst = closed_of seed in
      match I.min_feasible_t inst with
      | None -> false
      | Some (t, x) -> P.feasible inst ~tmax:t x)

let prop_pushdown =
  QCheck.Test.make
    ~name:"Lemma V.1: push-down preserves feasibility, lands on singletons" ~count:100
    Test_util.seed_arb (fun seed ->
      let inst = closed_of seed in
      match I.min_feasible_t inst with
      | None -> false
      | Some (t, x) ->
          let x' = P.push_down inst ~tmax:t x in
          P.feasible inst ~tmax:t x' && P.singletons_only inst x')

let prop_lst_rounds_all_jobs =
  (* The rounding theorem requires a vertex: re-solving the unrelated
     restriction (as Approx does) must always yield a perfect matching
     on the fractional jobs.  (Rounding the pushed-down solution instead
     would not be sound — push-down does not preserve basicness.) *)
  QCheck.Test.make ~name:"LST: perfect matching on basic solutions" ~count:100
    Test_util.seed_arb (fun seed ->
      let inst = closed_of seed in
      match I.min_feasible_t inst with
      | None -> false
      | Some (t, _) -> (
          let iu = Approx.Exact.unrelated_restriction inst in
          match I.lp_feasible iu ~tmax:t with
          | None -> QCheck.Test.fail_reportf "Lemma V.1 transfer failed"
          | Some xu -> (
              match R.round iu xu with
              | Error e -> QCheck.Test.fail_reportf "rounding failed: %s" e
              | Ok (a, stats) ->
                  Assignment.well_formed iu a
                  && stats.matched = stats.fractional_jobs)))

let prop_theorem_v2_bound =
  QCheck.Test.make ~name:"Theorem V.2: makespan <= 2 t_lp, schedule valid" ~count:100
    Test_util.seed_arb (fun seed ->
      let inst = Test_util.random_instance seed in
      match Approx.Exact.solve inst with
      | Error e -> QCheck.Test.fail_reportf "approx failed: %s" e
      | Ok o ->
          o.makespan <= 2 * o.t_lp
          && Schedule.is_valid o.instance o.assignment o.schedule
          && Schedule.makespan o.schedule <= o.makespan)

let prop_ratio_vs_optimum =
  QCheck.Test.make ~name:"measured ratio ALG/OPT within [1, 2]" ~count:40
    Test_util.seed_arb (fun seed ->
      let inst = Test_util.random_instance ~max_m:4 ~max_n:6 seed in
      match Approx.Exact.solve inst with
      | Error e -> QCheck.Test.fail_reportf "approx failed: %s" e
      | Ok o -> (
          match Exact.optimal inst with
          | None -> false
          | Some (_, opt, stats) ->
              (* The closed instance cannot beat the original optimum:
                 added singletons inherit minimal-superset times. *)
              stats.proven && opt <= o.makespan && o.makespan <= 2 * opt))

let test_example_ii1_end_to_end () =
  match Approx.Exact.solve (Families.example_ii1 ()) with
  | Error e -> Alcotest.failf "approx failed: %s" e
  | Ok o ->
      Alcotest.(check int) "t_lp = 2" 2 o.t_lp;
      Alcotest.(check bool) "within factor 2" true (o.makespan <= 4);
      Alcotest.(check bool) "valid" true
        (Schedule.is_valid o.instance o.assignment o.schedule)

let test_example_v1_gap () =
  (* The reduced unrelated instance loses a factor ~2 (Example V.1). *)
  let n = 7 in
  let inst = Families.example_v1 n in
  (match Exact.optimal inst with
  | Some (_, opt, _) ->
      Alcotest.(check int) "hierarchical opt" (Families.example_v1_hierarchical_opt n) opt
  | None -> Alcotest.fail "infeasible");
  match Hs_baselines.Unrelated_reduction.optimal_reduced inst with
  | Some r -> Alcotest.(check int) "unrelated opt" (Families.example_v1_unrelated_opt n) r
  | None -> Alcotest.fail "reduced infeasible"

let test_general_masks () =
  (* Non-laminar family: {0,1}, {1,2}, {0}; the §II reduction must produce
     a schedule within factor 8 of the LP lower bound. *)
  let g =
    General_instance.make_exn ~m:3
      ~sets:[ [ 0; 1 ]; [ 1; 2 ]; [ 0 ] ]
      ~p:
        [|
          [| Ptime.fin 4; Ptime.fin 6; Ptime.fin 2 |];
          [| Ptime.fin 5; Ptime.fin 5; Ptime.fin 5 |];
          [| Ptime.fin 3; Ptime.fin 4; Ptime.fin 2 |];
        |]
  in
  match Approx.solve_general g with
  | Error e -> Alcotest.failf "general masks failed: %s" e
  | Ok o ->
      Alcotest.(check bool) "lower bound positive" true (o.lower_bound >= 1);
      Alcotest.(check bool) "within factor 8" true (o.makespan <= 8 * o.lower_bound);
      Alcotest.(check bool) "witness sets defined" true
        (Array.for_all (fun k -> k >= 0) o.set_assignment)

let prop_float_pipeline_close_to_exact =
  (* The float LP path is a heuristic; on small instances it should land
     within a small factor of the exact pipeline (and stay valid). *)
  QCheck.Test.make ~name:"float pipeline: valid schedules" ~count:40 Test_util.seed_arb
    (fun seed ->
      let inst = Test_util.random_instance ~max_m:4 ~max_n:6 seed in
      match Approx.Fast.solve inst with
      | Error e -> QCheck.Test.fail_reportf "float pipeline failed: %s" e
      | Ok o -> Schedule.is_valid o.instance o.assignment o.schedule)

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let qt t = QCheck_alcotest.to_alcotest t in
  ( "pipeline",
    [
      u "Example II.1 LP horizon" test_example_ii1_lp;
      u "search bounds" test_t_bounds;
      u "Example II.1 end-to-end" test_example_ii1_end_to_end;
      u "Example V.1 gap" test_example_v1_gap;
      u "general masks (8-approx)" test_general_masks;
      qt prop_lp_relaxes_integral;
      qt prop_lp_monotone_in_t;
      qt prop_lower_bound_certified;
      qt prop_lp_solution_feasible;
      qt prop_pushdown;
      qt prop_lst_rounds_all_jobs;
      qt prop_theorem_v2_bound;
      qt prop_ratio_vs_optimum;
      qt prop_float_pipeline_close_to_exact;
    ] )

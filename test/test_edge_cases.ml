(* Cross-module edge cases: singleton-free families through the closure
   pipeline, cluster-mixed assignments, degenerate memory workloads,
   DOT/Gantt rendering details. *)

open Hs_model
open Hs_core
module L = Hs_laminar.Laminar

let test_closure_pipeline_without_singletons () =
  (* A = {M, {0,1}} over 4 machines: no singleton exists, so the Section V
     closure must create all four, inheriting minimal-superset times. *)
  let lam = L.of_sets_exn ~m:4 [ [ 0; 1; 2; 3 ]; [ 0; 1 ] ] in
  let inst =
    Instance.make_exn lam
      [|
        [| Ptime.fin 8; Ptime.fin 5 |];
        [| Ptime.fin 8; Ptime.fin 5 |];
        [| Ptime.fin 6; Ptime.fin 6 |];
        [| Ptime.fin 9; Ptime.fin 4 |];
      |]
  in
  match Approx.Exact.solve inst with
  | Error e -> Alcotest.failf "pipeline failed: %s" e
  | Ok o ->
      Alcotest.(check int) "closed family has 6 sets" 6
        (L.size (Instance.laminar o.instance));
      Alcotest.(check bool) "valid" true
        (Schedule.is_valid o.instance o.assignment o.schedule);
      Alcotest.(check bool) "factor two" true (o.makespan <= 2 * o.t_lp);
      (* added singletons have no original counterpart *)
      let lam_c = Instance.laminar o.instance in
      let s2 = Option.get (L.singleton lam_c 2) in
      Alcotest.(check (option int)) "translate new singleton" None (o.translate s2)

let test_cluster_local_global_mix () =
  (* Clustered family: one job per regime — global, cluster, pinned. *)
  let lam = Hs_laminar.Topology.clustered ~m:4 ~clusters:2 in
  let full = Option.get (L.full_set lam) in
  let c0 = Option.get (L.find lam [ 0; 1 ]) in
  let s3 = Option.get (L.singleton lam 3) in
  let nsets = L.size lam in
  let row v = Array.make nsets (Ptime.fin v) in
  let inst = Instance.make_exn lam [| row 6; row 4; row 3 |] in
  let a = [| full; c0; s3 |] in
  let t = Assignment.min_makespan inst a in
  match Hierarchical.schedule_stats inst a ~tmax:t with
  | Error e -> Alcotest.failf "scheduler failed: %s" e
  | Ok (sched, stats) ->
      Alcotest.(check bool) "valid" true (Schedule.is_valid inst a sched);
      Alcotest.(check bool) "bounded events" true (Tape.stops stats <= 6)

let test_all_jobs_forced_global () =
  (* Local capacity zero everywhere except the full set. *)
  let inst =
    Instance.semi_partitioned
      ~global:[| Ptime.fin 3; Ptime.fin 3; Ptime.fin 3 |]
      ~local:
        [|
          [| Ptime.fin 3; Ptime.fin 3 |];
          [| Ptime.fin 3; Ptime.fin 3 |];
          [| Ptime.fin 3; Ptime.fin 3 |];
        |]
  in
  let lam = Instance.laminar inst in
  let full = Option.get (L.full_set lam) in
  let a = Array.make 3 full in
  let t = Assignment.min_makespan inst a in
  Alcotest.(check int) "T = ceil(9/2)" 5 t;
  match Semi_partitioned.schedule_stats inst a ~tmax:t with
  | Error e -> Alcotest.failf "failed: %s" e
  | Ok (sched, stats) ->
      Alcotest.(check bool) "valid" true (Schedule.is_valid inst a sched);
      Alcotest.(check bool) "one migration at most" true (stats.Tape.migrations <= 1)

let test_memory_forces_global () =
  (* Two jobs, tiny budgets on machine 0 only: memory must spread them
     even though machine 0 is much faster. *)
  let inst =
    Instance.semi_partitioned
      ~global:[| Ptime.fin 4; Ptime.fin 4 |]
      ~local:[| [| Ptime.fin 1; Ptime.fin 4 |]; [| Ptime.fin 1; Ptime.fin 4 |] |]
  in
  let payload =
    { Memory.budgets = [| 1; 9 |]; space = [| [| 1; 1 |]; [| 1; 1 |] |] }
  in
  match Memory.solve_model1 inst payload with
  | Error e -> Alcotest.failf "model1 failed: %s" e
  | Ok r ->
      Alcotest.(check bool) "valid" true (Schedule.is_valid inst r.assignment r.schedule);
      Alcotest.(check bool) "budget factor bounded" true
        (Hs_numeric.Q.leq r.max_capacity_factor (Hs_numeric.Q.of_int 3))

let test_dot_rendering () =
  let lam = Hs_laminar.Topology.clustered ~m:4 ~clusters:2 in
  let dot = L.to_dot lam in
  Alcotest.(check bool) "digraph" true (String.length dot > 20);
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has root label" true (contains "{0,1,2,3}");
  Alcotest.(check bool) "has cluster label" true (contains "{0,1}");
  Alcotest.(check bool) "has edges" true (contains "->")

let test_gantt_cell_sharing () =
  (* Rescaled cells covered by two different jobs must render '#'. *)
  let seg job machine start stop = { Schedule.job; machine; start; stop } in
  let sched =
    { Schedule.horizon = 200; segments = [ seg 0 0 0 99; seg 1 0 99 200 ] }
  in
  let g = Gantt.render ~max_width:10 sched in
  let has_hash = String.exists (fun ch -> ch = '#') g in
  Alcotest.(check bool) "shared cell marked" true has_hash

let test_instance_pp_smoke () =
  let inst = Hs_workloads.Families.example_ii1 () in
  let s = Format.asprintf "%a" Instance.pp inst in
  Alcotest.(check bool) "pp mentions jobs" true (String.length s > 50)

let test_q_parse_errors () =
  List.iter
    (fun s ->
      match Hs_numeric.Q.of_string s with
      | exception _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ ""; "a"; "1/"; "1/0" ]

let test_empty_schedule_metrics () =
  let sched = { Schedule.horizon = 5; segments = [] } in
  let m = Metrics.of_schedule ~njobs:3 sched in
  Alcotest.(check int) "no stops" 0 m.stops;
  Alcotest.(check int) "per-job array sized" 3 (Array.length m.per_job);
  Alcotest.(check int) "makespan" 0 (Schedule.makespan sched)

let test_approx_infeasible_instance () =
  let inst = Instance.unrelated ~m:2 [| [| Ptime.Inf; Ptime.Inf |] |] in
  match Approx.Exact.solve inst with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unschedulable instance accepted"

(* No jobs: the search pins T* = 0, and the unrelated restriction and
   the Section II reduction keep their machines although no row of
   processing times carries the count. *)
let test_zero_jobs () =
  let inst = Instance.make_exn (Hs_laminar.Topology.semi_partitioned 3) [||] in
  (match Approx.Exact.solve_checked inst with
  | Error e -> Alcotest.failf "zero jobs: %s" (Hs_error.to_string e)
  | Ok o ->
      Alcotest.(check (pair int int)) "T* and makespan" (0, 0) (o.t_lp, o.makespan);
      Alcotest.(check int) "closed family keeps its machines" 3
        (Instance.nmachines o.instance);
      Alcotest.(check bool) "valid" true
        (Schedule.is_valid o.instance o.assignment o.schedule));
  Alcotest.(check int) "I_u keeps its machines" 3
    (Instance.nmachines (Approx.Exact.unrelated_restriction inst));
  let g = General_instance.make_exn ~m:3 ~sets:[ [ 0; 1; 2 ]; [ 0; 1 ] ] ~p:[||] in
  Alcotest.(check int) "reduction keeps its machines" 3
    (Instance.nmachines (General_instance.to_unrelated g));
  match Approx.solve_general g with
  | Error e -> Alcotest.failf "zero jobs, general family: %s" e
  | Ok o ->
      Alcotest.(check (pair int int)) "general bound and makespan" (0, 0)
        (o.lower_bound, o.makespan)

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  ( "edge-cases",
    [
      u "closure pipeline without singletons" test_closure_pipeline_without_singletons;
      u "cluster local/global mix" test_cluster_local_global_mix;
      u "all jobs global" test_all_jobs_forced_global;
      u "memory forces spreading" test_memory_forces_global;
      u "dot rendering" test_dot_rendering;
      u "gantt cell sharing" test_gantt_cell_sharing;
      u "instance pp" test_instance_pp_smoke;
      u "Q parse errors" test_q_parse_errors;
      u "empty schedule metrics" test_empty_schedule_metrics;
      u "approx rejects unschedulable" test_approx_infeasible_instance;
      u "zero jobs solve to makespan 0" test_zero_jobs;
    ] )

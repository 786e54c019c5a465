(* Tests for processing times, instances, assignments and schedules. *)

open Hs_model
open Hs_laminar

let fin = Ptime.fin

let test_ptime () =
  Alcotest.(check int) "compare" (-1) (Ptime.compare (fin 3) (fin 5));
  Alcotest.(check bool) "fin <= inf" true (Ptime.leq (fin 1000) Ptime.Inf);
  Alcotest.(check bool) "inf <= fin" false (Ptime.leq Ptime.Inf (fin 1000));
  Alcotest.(check bool) "inf = inf" true (Ptime.equal Ptime.Inf Ptime.Inf);
  Alcotest.(check bool) "fits" true (Ptime.fits (fin 5) ~tmax:5);
  Alcotest.(check bool) "fits strict" false (Ptime.fits (fin 6) ~tmax:5);
  Alcotest.(check bool) "inf never fits" false (Ptime.fits Ptime.Inf ~tmax:1000000);
  Alcotest.(check (option int)) "value" (Some 5) (Ptime.value (fin 5));
  Alcotest.check_raises "negative" (Invalid_argument "Ptime.fin: negative processing time")
    (fun () -> ignore (fin (-1)))

let test_monotonicity_validation () =
  let lam = Topology.semi_partitioned 2 in
  let full = Option.get (Laminar.full_set lam) in
  let s0 = Option.get (Laminar.singleton lam 0) in
  let s1 = Option.get (Laminar.singleton lam 1) in
  (* singletons cheaper than global: fine *)
  let row = Array.make 3 Ptime.Inf in
  row.(full) <- fin 5;
  row.(s0) <- fin 3;
  row.(s1) <- fin 5;
  (match Instance.make lam [| row |] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid instance rejected: %s" e);
  (* singleton more expensive than global: monotonicity violation *)
  let row = Array.make 3 Ptime.Inf in
  row.(full) <- fin 3;
  row.(s0) <- fin 5;
  (match Instance.make lam [| row |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-monotone instance accepted");
  (* Inf below Fin is also a violation *)
  let row = Array.make 3 (fin 3) in
  row.(s0) <- Ptime.Inf;
  (match Instance.make lam [| row |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Inf-below-Fin accepted");
  (* arity check *)
  match Instance.make lam [| [| fin 1 |] |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ragged matrix accepted"

let test_constructors () =
  let u = Instance.unrelated ~m:2 [| [| fin 2; fin 3 |]; [| fin 1; Ptime.Inf |] |] in
  Alcotest.(check int) "unrelated jobs" 2 (Instance.njobs u);
  Alcotest.(check bool) "unrelated shape" true
    (Laminar.is_singletons_only (Instance.laminar u));
  let sp =
    Instance.semi_partitioned ~global:[| fin 4 |] ~local:[| [| fin 2; fin 3 |] |]
  in
  Alcotest.(check bool) "semi-partitioned shape" true
    (Laminar.is_semi_partitioned (Instance.laminar sp));
  let id = Instance.identical ~m:3 ~lengths:[| 4; 5 |] in
  Alcotest.(check int) "identical sets" 1 (Laminar.size (Instance.laminar id))

let test_with_singletons () =
  let lam = Laminar.of_sets_exn ~m:3 [ [ 0; 1; 2 ]; [ 0; 1 ] ] in
  let inst = Instance.make_exn lam [| [| fin 10; fin 6 |] |] in
  let closed, translate = Instance.with_singletons inst in
  let lam' = Instance.laminar closed in
  Alcotest.(check int) "5 sets" 5 (Laminar.size lam');
  (* {0} and {1} inherit from {0,1} (p=6); {2} inherits from M (p=10). *)
  let p_of i =
    Instance.ptime closed ~job:0 ~set:(Option.get (Laminar.singleton lam' i))
  in
  Alcotest.(check string) "p({0})" "6" (Ptime.to_string (p_of 0));
  Alcotest.(check string) "p({1})" "6" (Ptime.to_string (p_of 1));
  Alcotest.(check string) "p({2})" "10" (Ptime.to_string (p_of 2));
  (* translation maps surviving sets back *)
  let full' = Option.get (Laminar.full_set lam') in
  Alcotest.(check bool) "translate full" true (translate full' <> None)

let test_min_volume () =
  let inst = Instance.unrelated ~m:2 [| [| fin 2; fin 3 |]; [| fin 5; fin 1 |] |] in
  Alcotest.(check (option int)) "total min volume" (Some 3) (Instance.total_min_volume inst);
  let inst2 = Instance.unrelated ~m:2 [| [| Ptime.Inf; Ptime.Inf |] |] in
  Alcotest.(check (option int)) "infeasible job" None (Instance.total_min_volume inst2)

let test_assignment_makespan () =
  (* Example III.1: optimal assignment has makespan 2. *)
  let inst = Hs_workloads.Families.example_ii1 () in
  let lam = Instance.laminar inst in
  let full = Option.get (Laminar.full_set lam) in
  let s i = Option.get (Laminar.singleton lam i) in
  let a = [| s 0; s 1; full |] in
  Alcotest.(check int) "makespan 2" 2 (Assignment.min_makespan inst a);
  Alcotest.(check bool) "feasible at 2" true (Assignment.feasible inst a ~tmax:2);
  Alcotest.(check bool) "infeasible at 1" false (Assignment.feasible inst a ~tmax:1);
  (* assigning job 2 to machine 0 serialises with job 0: makespan 3 *)
  let a' = [| s 0; s 1; s 0 |] in
  Alcotest.(check int) "partitioned makespan 3" 3 (Assignment.min_makespan inst a');
  (* ill-formed: job on an Inf mask *)
  let bad = [| s 1; s 1; full |] in
  Alcotest.(check bool) "ill-formed" false (Assignment.well_formed inst bad)

let test_schedule_validation () =
  let inst = Instance.unrelated ~m:2 [| [| fin 2; Ptime.Inf |]; [| Ptime.Inf; fin 3 |] |] in
  let lam = Instance.laminar inst in
  let s i = Option.get (Laminar.singleton lam i) in
  let a = [| s 0; s 1 |] in
  let seg job machine start stop = { Schedule.job; machine; start; stop } in
  let ok = { Schedule.horizon = 3; segments = [ seg 0 0 0 2; seg 1 1 0 3 ] } in
  Alcotest.(check bool) "valid" true (Schedule.is_valid inst a ok);
  (* wrong total *)
  let bad1 = { Schedule.horizon = 3; segments = [ seg 0 0 0 1; seg 1 1 0 3 ] } in
  Alcotest.(check bool) "wrong volume" false (Schedule.is_valid inst a bad1);
  (* machine conflict *)
  let bad2 =
    { Schedule.horizon = 5; segments = [ seg 0 0 0 2; seg 1 0 1 4 ] }
  in
  Alcotest.(check bool) "machine overlap" false (Schedule.is_valid inst a bad2);
  (* outside affinity mask *)
  let bad3 = { Schedule.horizon = 5; segments = [ seg 0 1 0 2; seg 1 1 2 5 ] } in
  Alcotest.(check bool) "mask violated" false (Schedule.is_valid inst a bad3);
  (* outside horizon *)
  let bad4 = { Schedule.horizon = 2; segments = [ seg 0 0 0 2; seg 1 1 0 3 ] } in
  Alcotest.(check bool) "horizon violated" false (Schedule.is_valid inst a bad4)

let test_self_parallelism_rejected () =
  let inst = Instance.identical ~m:2 ~lengths:[| 4 |] in
  let a = [| 0 |] in
  let seg machine start stop = { Schedule.job = 0; machine; start; stop } in
  let bad = { Schedule.horizon = 2; segments = [ seg 0 0 2; seg 1 0 2 ] } in
  Alcotest.(check bool) "self-parallel rejected" false (Schedule.is_valid inst a bad);
  let good = { Schedule.horizon = 4; segments = [ seg 0 0 2; seg 1 2 4 ] } in
  Alcotest.(check bool) "migration fine" true (Schedule.is_valid inst a good)

let test_wrap_segments () =
  let w = Schedule.wrap_segments ~horizon:10 ~job:0 ~machine:1 ~pos:7 ~len:5 in
  Alcotest.(check int) "two pieces" 2 (List.length w);
  let total = List.fold_left (fun acc (s : Schedule.segment) -> acc + s.stop - s.start) 0 w in
  Alcotest.(check int) "length preserved" 5 total;
  let w2 = Schedule.wrap_segments ~horizon:10 ~job:0 ~machine:1 ~pos:2 ~len:5 in
  Alcotest.(check int) "one piece" 1 (List.length w2);
  Alcotest.(check int) "empty" 0
    (List.length (Schedule.wrap_segments ~horizon:10 ~job:0 ~machine:1 ~pos:3 ~len:0))

let test_coalesce_and_metrics () =
  let seg job machine start stop = { Schedule.job; machine; start; stop } in
  let sched =
    {
      Schedule.horizon = 10;
      segments = [ seg 0 0 0 2; seg 0 0 2 4; seg 0 1 5 7; seg 0 0 8 9 ];
    }
  in
  let c = Schedule.coalesce sched in
  Alcotest.(check int) "coalesced to 3" 3 (List.length (Schedule.segments c));
  let m = Metrics.of_schedule ~njobs:1 sched in
  (* runs: [0,4)@0, [5,7)@1, [8,9)@0 → 2 transitions, both migrations *)
  Alcotest.(check int) "migrations" 2 m.migrations;
  Alcotest.(check int) "preemptions" 0 m.preemptions;
  Alcotest.(check int) "stops" 2 m.stops;
  let same_machine =
    { Schedule.horizon = 10; segments = [ seg 0 0 0 2; seg 0 0 5 7 ] }
  in
  let m2 = Metrics.of_schedule ~njobs:1 same_machine in
  Alcotest.(check int) "preemption only" 1 m2.preemptions;
  Alcotest.(check int) "no migration" 0 m2.migrations

let test_general_instance () =
  (* A genuinely non-laminar family. *)
  let g =
    General_instance.make_exn ~m:3
      ~sets:[ [ 0; 1 ]; [ 1; 2 ]; [ 0 ] ]
      ~p:[| [| fin 4; fin 6; fin 2 |] |]
  in
  let u = General_instance.to_unrelated g in
  let lam = Instance.laminar u in
  let p_of i = Instance.ptime u ~job:0 ~set:(Option.get (Laminar.singleton lam i)) in
  Alcotest.(check string) "machine 0 best" "2" (Ptime.to_string (p_of 0));
  Alcotest.(check string) "machine 1 best" "4" (Ptime.to_string (p_of 1));
  Alcotest.(check string) "machine 2 best" "6" (Ptime.to_string (p_of 2));
  Alcotest.(check (option int)) "witness machine 0" (Some 2)
    (General_instance.witness_set g ~job:0 ~machine:0);
  (* monotonicity check across subset pairs *)
  match
    General_instance.make ~m:3
      ~sets:[ [ 0; 1 ]; [ 0 ] ]
      ~p:[| [| fin 2; fin 5 |] |]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-monotone general instance accepted"

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  ( "model",
    [
      u "ptime" test_ptime;
      u "monotonicity validation" test_monotonicity_validation;
      u "constructors" test_constructors;
      u "singleton closure" test_with_singletons;
      u "min volume" test_min_volume;
      u "assignment makespan" test_assignment_makespan;
      u "schedule validation" test_schedule_validation;
      u "self-parallelism" test_self_parallelism_rejected;
      u "wrap segments" test_wrap_segments;
      u "coalesce & metrics" test_coalesce_and_metrics;
      u "general instance" test_general_instance;
    ] )

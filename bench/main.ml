(* Benchmark harness.

   Running `dune exec bench/main.exe` does two things:

   1. regenerates every evaluation table/figure from DESIGN.md §4
      (T1-T6, F1-F5) via Hs_experiments — these are the paper-shaped
      results recorded in EXPERIMENTS.md;
   2. times the hot paths with Bechamel (exact vs float simplex, the full
      pipeline, the schedulers, branch and bound, and the bignum
      substrate).

   `dune exec bench/main.exe -- quick` shrinks the sweeps.
   `dune exec bench/main.exe -- experiments` / `-- timings` run one half. *)

open Bechamel
open Hs_model
module T = Hs_laminar.Topology

(* ---------------- Bechamel micro-benchmarks --------------------------- *)

let pipeline_instance ~n ~m =
  let rng = Hs_workloads.Rng.create (900 + n) in
  Hs_workloads.Generators.hierarchical rng ~lam:(T.semi_partitioned m) ~n
    ~base:(2, 15) ~heterogeneity:1.7 ~overhead:0.2 ()

let scheduler_case ~n ~m =
  let rng = Hs_workloads.Rng.create (1700 + n) in
  let inst =
    Hs_workloads.Generators.hierarchical rng
      ~lam:(T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:(Stdlib.max 1 (m / 4)))
      ~n ~base:(2, 15) ~heterogeneity:1.5 ~overhead:0.2 ()
  in
  let lam = Instance.laminar inst in
  let a = Array.init n (fun j -> j * 7 mod Hs_laminar.Laminar.size lam) in
  let t = Assignment.min_makespan inst a in
  (inst, a, t)

let tests =
  let exact_lp ~n ~m =
    let inst = pipeline_instance ~n ~m in
    Test.make
      ~name:(Printf.sprintf "pipeline/exact n=%d m=%d" n m)
      (Staged.stage (fun () -> ignore (Hs_core.Approx.Exact.solve inst)))
  in
  let float_lp ~n ~m =
    let inst = pipeline_instance ~n ~m in
    Test.make
      ~name:(Printf.sprintf "pipeline/float n=%d m=%d" n m)
      (Staged.stage (fun () -> ignore (Hs_core.Approx.Fast.solve inst)))
  in
  let scheduler ~n ~m =
    let inst, a, t = scheduler_case ~n ~m in
    Test.make
      ~name:(Printf.sprintf "alg2+3 n=%d m=%d" n m)
      (Staged.stage (fun () -> ignore (Hs_core.Hierarchical.schedule inst a ~tmax:t)))
  in
  let bnb =
    let inst = pipeline_instance ~n:9 ~m:4 in
    Test.make ~name:"branch&bound n=9 m=4"
      (Staged.stage (fun () -> ignore (Hs_core.Exact.optimal inst)))
  in
  let bigmul =
    let a = Hs_numeric.Bigint.of_string (String.make 120 '7') in
    let b = Hs_numeric.Bigint.of_string (String.make 97 '3') in
    Test.make ~name:"bigint mul 120x97 digits"
      (Staged.stage (fun () -> ignore (Hs_numeric.Bigint.mul a b)))
  in
  let mcnaughton =
    let lengths = Array.init 500 (fun i -> 1 + (i * 37 mod 90)) in
    Test.make ~name:"mcnaughton n=500 m=16"
      (Staged.stage (fun () -> ignore (Hs_baselines.Mcnaughton.schedule ~m:16 ~lengths)))
  in
  Test.make_grouped ~name:"hsched"
    [
      exact_lp ~n:8 ~m:4;
      float_lp ~n:8 ~m:4;
      exact_lp ~n:16 ~m:4;
      float_lp ~n:16 ~m:4;
      scheduler ~n:30 ~m:8;
      bnb;
      bigmul;
      mcnaughton;
    ]

(* Per-solve counter profile of the representative cases: reset the
   registry, run the case once, keep the non-zero counters.  The solves
   are deterministic, so these are exact per-run rates. *)
let counter_profiles () =
  let case name f =
    Hs_obs.Metrics.reset ();
    f ();
    let snap = Hs_obs.Metrics.snapshot () in
    let nonzero =
      List.filter (fun (_, v) -> v <> 0) snap.Hs_obs.Metrics.counters
    in
    (name, Hs_obs.Json.Obj (List.map (fun (k, v) -> (k, Hs_obs.Json.Int v)) nonzero))
  in
  [
    case "pipeline/exact n=8 m=4" (fun () ->
        ignore (Hs_core.Approx.Exact.solve (pipeline_instance ~n:8 ~m:4)));
    case "pipeline/float n=16 m=4" (fun () ->
        ignore (Hs_core.Approx.Fast.solve (pipeline_instance ~n:16 ~m:4)));
    case "branch&bound n=9 m=4" (fun () ->
        ignore (Hs_core.Exact.optimal (pipeline_instance ~n:9 ~m:4)));
  ]

let write_report rows =
  let doc =
    Hs_obs.Json.Obj
      [
        ("schema", Hs_obs.Json.String "hsched.bench/1");
        ( "ns_per_run",
          Hs_obs.Json.Obj (List.map (fun (name, est) -> (name, Hs_obs.Json.Float est)) rows)
        );
        ("counters_per_solve", Hs_obs.Json.Obj (counter_profiles ()));
      ]
  in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc (Hs_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_pipeline.json"

let run_timings () =
  print_endline "\n== Bechamel timings (monotonic clock) ==";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, est) ->
      let value, unit_ =
        if est > 1e9 then (est /. 1e9, "s")
        else if est > 1e6 then (est /. 1e6, "ms")
        else if est > 1e3 then (est /. 1e3, "us")
        else (est, "ns")
      in
      Printf.printf "%-32s %10.2f %s/run\n" name value unit_)
    rows;
  write_report rows

(* ---------------- Parallel sweep: determinism + speedup --------------- *)

(* Run T1 (the heaviest sweep: LP pipeline + proven branch and bound per
   trial) at several job counts, byte-compare the captured tables and
   merged metric snapshots against the sequential run, and record the
   speedup curve in BENCH_parallel.json.  Exits non-zero if any parallel
   run diverges from the sequential one — this is the acceptance check
   for the Hs_exec determinism contract (DESIGN.md section 10). *)
let run_parallel ~quick () =
  print_endline "\n== Parallel T1 sweep: determinism + speedup (Hs_exec) ==";
  let run jobs =
    let buf = Buffer.create 8192 in
    Hs_experiments.Table.redirect (Some buf);
    Hs_obs.Metrics.reset ();
    let t0 = Unix.gettimeofday () in
    Hs_experiments.Experiments.t1 ~quick ~jobs ();
    let dt = Unix.gettimeofday () -. t0 in
    Hs_experiments.Table.redirect None;
    let metrics =
      Hs_obs.Json.to_string (Hs_obs.Metrics.to_json (Hs_obs.Metrics.snapshot ()))
    in
    (Buffer.contents buf, metrics, dt)
  in
  let results = List.map (fun j -> (j, run j)) [ 1; 2; 4; 8 ] in
  let _, (ref_table, ref_metrics, t_seq) = List.hd results in
  print_string ref_table;
  Printf.printf "%-6s %10s %9s %10s %10s\n" "jobs" "wall (s)" "speedup" "tables" "metrics";
  let rows =
    List.map
      (fun (j, (tbl, met, dt)) ->
        let tables_ok = String.equal tbl ref_table in
        let metrics_ok = String.equal met ref_metrics in
        Printf.printf "%-6d %10.3f %9.2f %10s %10s\n" j dt
          (t_seq /. Float.max 1e-9 dt)
          (if tables_ok then "identical" else "DIFFER")
          (if metrics_ok then "identical" else "DIFFER");
        (j, dt, tables_ok, metrics_ok))
      results
  in
  let doc =
    Hs_obs.Json.Obj
      [
        ("schema", Hs_obs.Json.String "hsched.bench.parallel/1");
        ("experiment", Hs_obs.Json.String "t1");
        ("quick", Hs_obs.Json.Bool quick);
        ("recommended_domains", Hs_obs.Json.Int (Hs_exec.recommended_jobs ()));
        ( "runs",
          Hs_obs.Json.List
            (List.map
               (fun (j, dt, tables_ok, metrics_ok) ->
                 Hs_obs.Json.Obj
                   [
                     ("jobs", Hs_obs.Json.Int j);
                     ("wall_s", Hs_obs.Json.Float dt);
                     ("speedup", Hs_obs.Json.Float (t_seq /. Float.max 1e-9 dt));
                     ("tables_identical", Hs_obs.Json.Bool tables_ok);
                     ("metrics_identical", Hs_obs.Json.Bool metrics_ok);
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Hs_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_parallel.json";
  if not (List.for_all (fun (_, _, t, m) -> t && m) rows) then begin
    prerr_endline "parallel determinism check FAILED: output diverged from jobs=1";
    exit 1
  end

(* ---------------- Service throughput bench ----------------------------- *)

(* Saturation sweep: drive a fresh in-process daemon (its own domain,
   its own socket, so its domain-local counters start at zero) with a
   deliberately small admission queue at c ∈ {1,4,16,64} client domains,
   each looping solve calls over a shared 8-instance pool.  Beyond the
   admission bound every extra request is shed with the typed overloaded
   response; clients honour its retry_after_ms hint through the
   deterministic client backoff until accepted.  Two latency series are
   kept per request: the accepted attempt alone (p50/p95/p99 — the
   overload contract is that accepted latency stays bounded while the
   excess is shed, not queued) and the total including shed round-trips
   and backoff sleeps (p99_total — the cost a retrying caller actually
   pays).  The daemon's own per-phase histograms (queue-wait, solve) are
   pulled over the out-of-band introspect verb before shutdown.  Results
   land in BENCH_service.json. *)
let run_service ~quick ~jobs () =
  print_endline
    "\n== Solver service: saturation sweep (admission control, Hs_service) ==";
  let pool =
    Array.init 8 (fun i ->
        let rng = Hs_workloads.Rng.create (4200 + i) in
        let inst =
          Hs_workloads.Generators.hierarchical rng ~lam:(T.semi_partitioned 4) ~n:6
            ~base:(2, 9) ~overhead:0.2 ()
        in
        Instance_io.to_string inst)
  in
  let total = if quick then 64 else 320 in
  let max_queue = 16 in
  let counters_of client =
    match Hs_service.Client.call client Hs_service.Protocol.Stats with
    | Ok r when r.Hs_service.Protocol.status = 0 ->
        List.filter_map
          (fun line ->
            match String.split_on_char '=' line with
            | [ k; v ] -> Some (String.trim k, int_of_string (String.trim v))
            | _ -> None)
          (String.split_on_char '\n' r.Hs_service.Protocol.body)
    | Ok r -> failwith ("service bench: stats failed: " ^ r.Hs_service.Protocol.error)
    | Error e -> failwith ("service bench: stats failed: " ^ e)
  in
  (* Daemon-side per-phase latency, over the out-of-band introspect verb:
     the smallest histogram bucket bound covering quantile [q], as a
     string (">max" when the overflow bucket is hit). *)
  let hist_quantile (h : Hs_obs.Metrics.hist_snapshot) q =
    if h.observations = 0 then "-"
    else
      let want =
        int_of_float (ceil (q *. float_of_int h.observations))
        |> Stdlib.max 1 |> Stdlib.min h.observations
      in
      let rec go i cum = function
        | [] -> ">" ^ string_of_int (List.fold_left Stdlib.max 0 h.buckets)
        | b :: rest ->
            let cum = cum + h.counts.(i) in
            if cum >= want then string_of_int b else go (i + 1) cum rest
      in
      go 0 0 h.buckets
  in
  let phases_of client =
    match
      Hs_service.Client.call client (Hs_service.Protocol.Introspect { recent = false })
    with
    | Ok r when r.Hs_service.Protocol.status = 0 -> (
        match Hs_obs.Json.parse r.Hs_service.Protocol.body with
        | Error e -> failwith ("service bench: introspect body: " ^ e)
        | Ok doc -> (
            match Hs_obs.Json.member "metrics" doc with
            | None -> failwith "service bench: introspect body lacks metrics"
            | Some m -> (
                match Hs_obs.Metrics.of_json m with
                | Error e -> failwith ("service bench: introspect metrics: " ^ e)
                | Ok snap ->
                    List.filter_map
                      (fun (label, name) ->
                        match Hs_obs.Metrics.find_histogram snap name with
                        | None -> None
                        | Some h ->
                            Some
                              ( label,
                                Hs_obs.Json.Obj
                                  [
                                    ("p50_le_ms", Hs_obs.Json.String (hist_quantile h 0.50));
                                    ("p99_le_ms", Hs_obs.Json.String (hist_quantile h 0.99));
                                    ("observations", Hs_obs.Json.Int h.observations);
                                  ] ))
                      [
                        ("queue", "service.phase.queue_ms");
                        ("solve", "service.phase.solve_ms");
                        ("render", "service.phase.render_ms");
                        ("write", "service.phase.write_ms");
                      ])))
    | Ok r -> failwith ("service bench: introspect failed: " ^ r.Hs_service.Protocol.error)
    | Error e -> failwith ("service bench: introspect failed: " ^ e)
  in
  let level c =
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hsb-%d-%d.sock" (Unix.getpid ()) c)
    in
    let cfg =
      { (Hs_service.Daemon.default_config ~socket_path:path) with jobs; max_queue }
    in
    let daemon = Domain.spawn (fun () -> Hs_service.Daemon.run cfg) in
    let rec wait k =
      if not (Sys.file_exists path) then
        if k = 0 then failwith "service bench: daemon socket never appeared"
        else begin
          ignore (Unix.select [] [] [] 0.05);
          wait (k - 1)
        end
    in
    wait 100;
    let per = Stdlib.max 1 (total / c) in
    let t0 = Unix.gettimeofday () in
    let workers =
      List.init c (fun w ->
          Domain.spawn (fun () ->
              match Hs_service.Client.connect path with
              | Error e -> failwith ("service bench: " ^ e)
              | Ok client ->
                  let lat = Array.make per 0.0 in
                  let tot = Array.make per 0.0 in
                  let my_retries = ref 0 in
                  for i = 0 to per - 1 do
                    let text = pool.((w + i) mod Array.length pool) in
                    (* Retry shed requests, honouring the daemon's
                       retry_after_ms hint through the deterministic
                       client backoff.  [lat] is the accepted attempt
                       alone; [tot] additionally carries every shed
                       round-trip and backoff sleep, so retry cost shows
                       up in p99_total instead of silently inflating the
                       accepted-latency percentiles. *)
                    let first = Unix.gettimeofday () in
                    let rec attempt tries =
                      let s0 = Unix.gettimeofday () in
                      match
                        Hs_service.Client.call client
                          (Hs_service.Protocol.Solve
                             { instance_text = text; budget = None; deadline_ms = None; trace_id = None })
                      with
                      | Ok r when r.Hs_service.Protocol.status = 0 ->
                          let now = Unix.gettimeofday () in
                          lat.(i) <- (now -. s0) *. 1000.;
                          tot.(i) <- (now -. first) *. 1000.
                      | Ok r when r.Hs_service.Protocol.status = 5 ->
                          if tries >= 200 then
                            failwith "service bench: shed 200 times in a row"
                          else begin
                            incr my_retries;
                            let wait =
                              Hs_service.Client.backoff_ms ~base_ms:1 ~cap_ms:100
                                ~attempt:tries
                                ~retry_after_ms:r.Hs_service.Protocol.retry_after_ms
                                ~salt:((w * 7919) + i) ()
                            in
                            ignore (Unix.select [] [] [] (float_of_int wait /. 1000.));
                            attempt (tries + 1)
                          end
                      | Ok r -> failwith ("service bench: solve: " ^ r.Hs_service.Protocol.error)
                      | Error e -> failwith ("service bench: solve: " ^ e)
                    in
                    attempt 0
                  done;
                  Hs_service.Client.close client;
                  (lat, tot, !my_retries)))
    in
    let joined = List.map Domain.join workers in
    let lats = List.concat_map (fun (l, _, _) -> Array.to_list l) joined in
    let tots = List.concat_map (fun (_, t, _) -> Array.to_list t) joined in
    let retries = List.fold_left (fun acc (_, _, r) -> acc + r) 0 joined in
    let wall = Unix.gettimeofday () -. t0 in
    let counters, phases =
      match Hs_service.Client.connect path with
      | Error e -> failwith ("service bench: " ^ e)
      | Ok client ->
          let cs = counters_of client in
          let ph = phases_of client in
          ignore (Hs_service.Client.call client Hs_service.Protocol.Shutdown);
          Hs_service.Client.close client;
          (cs, ph)
    in
    (match Domain.join daemon with
    | Ok () -> ()
    | Error e -> failwith ("service bench: daemon: " ^ e));
    let v k = Option.value ~default:0 (List.assoc_opt k counters) in
    let shed = v "service.shed" in
    let hits = v "service.cache.hit" and misses = v "service.cache.miss" in
    let ratio =
      if hits + misses = 0 then 0.0
      else float_of_int hits /. float_of_int (hits + misses)
    in
    let pct_of xs p =
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      sorted.(Stdlib.min (n - 1) (int_of_float ((float_of_int (n - 1) *. p /. 100.) +. 0.5)))
    in
    let pct = pct_of lats in
    let pct_tot = pct_of tots in
    let n_req = List.length lats in
    let rps = float_of_int n_req /. Float.max 1e-9 wall in
    Printf.printf
      "c=%-3d accepted=%-4d shed=%-5d retries=%-5d wall=%6.3fs rps=%8.1f p50=%6.2fms \
       p95=%6.2fms p99=%6.2fms p99_total=%6.2fms hit-ratio=%.3f\n\
       %!"
      c n_req shed retries wall rps (pct 50.) (pct 95.) (pct 99.) (pct_tot 99.) ratio;
    Hs_obs.Json.Obj
      [
        ("concurrency", Hs_obs.Json.Int c);
        ("accepted", Hs_obs.Json.Int n_req);
        ("shed", Hs_obs.Json.Int shed);
        ("retries", Hs_obs.Json.Int retries);
        ("wall_s", Hs_obs.Json.Float wall);
        ("rps", Hs_obs.Json.Float rps);
        ("p50_ms", Hs_obs.Json.Float (pct 50.));
        ("p95_ms", Hs_obs.Json.Float (pct 95.));
        ("p99_ms", Hs_obs.Json.Float (pct 99.));
        ("p50_total_ms", Hs_obs.Json.Float (pct_tot 50.));
        ("p99_total_ms", Hs_obs.Json.Float (pct_tot 99.));
        ("daemon_phase_ms", Hs_obs.Json.Obj phases);
        ("cache_hits", Hs_obs.Json.Int hits);
        ("cache_misses", Hs_obs.Json.Int misses);
        ("cache_hit_ratio", Hs_obs.Json.Float ratio);
      ]
  in
  let rows = List.map level [ 1; 4; 16; 64 ] in
  let doc =
    Hs_obs.Json.Obj
      [
        ("schema", Hs_obs.Json.String "hsched.bench.service/3");
        ("pool_size", Hs_obs.Json.Int (Array.length pool));
        ("daemon_jobs", Hs_obs.Json.Int jobs);
        ("max_queue", Hs_obs.Json.Int max_queue);
        ("quick", Hs_obs.Json.Bool quick);
        ("levels", Hs_obs.Json.List rows);
      ]
  in
  let oc = open_out "BENCH_service.json" in
  output_string oc (Hs_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_service.json"

(* ---------------- Online replay bench ---------------------------------- *)

(* Competitive-ratio harness (DESIGN.md §15): replay three seeded trace
   families through the online scheduler at β ∈ {0, 1/2, ∞}, every
   intermediate schedule certified.  The β=∞ replay doubles as the
   clairvoyant comparator for vs_baseline.  Throughput and the
   online.event_ms histogram (shared ms bucket ladder) land in
   BENCH_online.json; the run exits non-zero if any certified step fails
   or an unlimited-budget replay leaves the proven factor-2 envelope. *)
let run_online ~quick ~jobs () =
  print_endline "\n== Online replay: competitive ratio vs migration budget (Hs_online) ==";
  let module Replay = Hs_online.Replay in
  let module Q = Hs_numeric.Q in
  let nevents = if quick then 120 else 500 in
  let families =
    [
      (* steady churn: arrivals balanced by departures on a flat family *)
      ( "steady",
        Hs_workloads.Generators.trace ~seed:1201 ~lam:(T.semi_partitioned 8)
          ~events:nevents ~base:(1, 9) ~heterogeneity:1.5 ~overhead:0.15
          ~departures:0.45 ~max_live:8 () );
      (* growth to saturation: arrivals only until the live cap bites *)
      ( "growth",
        Hs_workloads.Generators.trace ~seed:1301
          ~lam:(T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2)
          ~events:nevents ~base:(1, 9) ~heterogeneity:1.3 ~overhead:0.2
          ~departures:0.0 ~max_live:12 () );
      (* drain-heavy: three machines retire mid-trace, forcing re-seats *)
      ( "drain",
        Hs_workloads.Generators.trace ~seed:1401
          ~lam:(T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2)
          ~events:nevents ~base:(1, 9) ~heterogeneity:1.5 ~overhead:0.15
          ~departures:0.35 ~drains:3 ~max_live:8 () );
    ]
  in
  let betas = [ ("inf", None); ("1/2", Some (Q.of_ints 1 2)); ("0", Some (Q.of_ints 0 1)) ] in
  let qjson = function
    | None -> Hs_obs.Json.Null
    | Some q -> Hs_obs.Json.String (Replay.decimal q)
  in
  let hist_json () =
    match
      Hs_obs.Metrics.find_histogram (Hs_obs.Metrics.snapshot ()) "online.event_ms"
    with
    | None -> Hs_obs.Json.Null
    | Some h ->
        Hs_obs.Json.Obj
          [
            ( "le_ms",
              Hs_obs.Json.List (List.map (fun b -> Hs_obs.Json.Int b) h.buckets) );
            ( "counts",
              Hs_obs.Json.List
                (List.map (fun c -> Hs_obs.Json.Int c) (Array.to_list h.counts)) );
            ("observations", Hs_obs.Json.Int h.observations);
          ]
  in
  let failed = ref false in
  let bench_family (name, tr) =
    (* β=∞ first: it is the clairvoyant baseline for the budgeted runs. *)
    let replay beta =
      Hs_obs.Metrics.reset ();
      let t0 = Unix.gettimeofday () in
      match Replay.run ?beta ~check:true ~jobs tr with
      | Error e -> failwith (Printf.sprintf "bench online: %s: %s" name e)
      | Ok o -> (o, Unix.gettimeofday () -. t0, hist_json ())
    in
    let baseline, _, _ = replay None in
    let rows =
      List.map
        (fun (label, beta) ->
          let o, wall, hist = replay beta in
          let s = o.Replay.summary in
          let vmax, vmean = Replay.vs_baseline o ~baseline in
          if s.Replay.check_failures > 0 then begin
            Printf.eprintf "bench online: %s beta=%s: %d step(s) failed certification\n"
              name label s.Replay.check_failures;
            failed := true
          end;
          (match (beta, s.Replay.max_ratio) with
          | None, Some r when Q.compare r (Q.of_int 2) > 0 ->
              Printf.eprintf
                "bench online: %s beta=inf: max ratio %s leaves the factor-2 envelope\n"
                name (Replay.decimal r);
              failed := true
          | _ -> ());
          let eps = float_of_int s.Replay.events /. Float.max 1e-9 wall in
          Printf.printf
            "%-7s beta=%-4s events=%-4d ev/s=%8.1f adopted=%-3d blocked=%-3d \
             migrated=%-5d forced=%-4d ratio(T*) max=%s mean=%s vs-inf max=%s \
             certified=%d/%d\n\
             %!"
            name label s.Replay.events eps s.Replay.adoptions s.Replay.budget_blocked
            s.Replay.migrated_volume s.Replay.forced_volume
            (match s.Replay.max_ratio with None -> "-" | Some r -> Replay.decimal r)
            (match s.Replay.mean_ratio with None -> "-" | Some r -> Replay.decimal r)
            (match vmax with None -> "-" | Some r -> Replay.decimal r)
            s.Replay.certified s.Replay.events;
          Hs_obs.Json.Obj
            [
              ("beta", Hs_obs.Json.String label);
              ("events", Hs_obs.Json.Int s.Replay.events);
              ("wall_s", Hs_obs.Json.Float wall);
              ("events_per_s", Hs_obs.Json.Float eps);
              ("resolves", Hs_obs.Json.Int s.Replay.resolves);
              ("adoptions", Hs_obs.Json.Int s.Replay.adoptions);
              ("budget_blocked", Hs_obs.Json.Int s.Replay.budget_blocked);
              ("arrived_volume", Hs_obs.Json.Int s.Replay.arrived_volume);
              ("migrated_volume", Hs_obs.Json.Int s.Replay.migrated_volume);
              ("forced_volume", Hs_obs.Json.Int s.Replay.forced_volume);
              ("final_makespan", Hs_obs.Json.Int s.Replay.final_makespan);
              ("max_ratio_vs_lp", qjson s.Replay.max_ratio);
              ("mean_ratio_vs_lp", qjson s.Replay.mean_ratio);
              ("max_ratio_vs_clairvoyant", qjson vmax);
              ("mean_ratio_vs_clairvoyant", qjson vmean);
              ("certified", Hs_obs.Json.Int s.Replay.certified);
              ("check_failures", Hs_obs.Json.Int s.Replay.check_failures);
              ("event_ms", hist);
            ])
        betas
    in
    (name, Hs_obs.Json.Obj [ ("runs", Hs_obs.Json.List rows) ])
  in
  let fams = List.map bench_family families in
  let doc =
    Hs_obs.Json.Obj
      [
        ("schema", Hs_obs.Json.String "hsched.bench.online/1");
        ("events", Hs_obs.Json.Int nevents);
        ("jobs", Hs_obs.Json.Int jobs);
        ("quick", Hs_obs.Json.Bool quick);
        ("families", Hs_obs.Json.Obj fams);
      ]
  in
  let oc = open_out "BENCH_online.json" in
  output_string oc (Hs_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_online.json";
  if !failed then begin
    prerr_endline "online bench FAILED: certification or envelope violation";
    exit 1
  end

(* ---------------- LP engine bench --------------------------------------- *)

(* Solver-scaling study of the simplex engine (DESIGN.md §16): a size
   ladder of single LP-feasibility solves timed in the float field, in
   exact arithmetic, and exact with the float pre-solve.  Exact
   arithmetic is capped to the sizes it can carry — the top of the
   ladder (10k jobs / 1k machines in the full run) is float-field only,
   with a pivot allowance so the run always terminates.  Writes
   BENCH_lp.json. *)
let run_lp ~quick () =
  print_endline "\n== LP engine: float vs exact vs presolve (Hs_lp) ==";
  let module I = Hs_core.Ilp.Make (Hs_lp.Field.Exact) in
  let module IF = Hs_core.Ilp.Make (Hs_lp.Field.Float) in
  let counter snap name =
    Option.value ~default:0 (List.assoc_opt name snap.Hs_obs.Metrics.counters)
  in
  (* Each measurement resets the registry, so counter values are exact
     per-solve rates, and wall time is a single monotonic interval. *)
  let measure f =
    Hs_obs.Metrics.reset ();
    let t0 = Unix.gettimeofday () in
    let outcome = f () in
    let wall = Unix.gettimeofday () -. t0 in
    (outcome, wall, Hs_obs.Metrics.snapshot ())
  in
  let instance ~n ~m =
    let rng = Hs_workloads.Rng.create (7100 + n + m) in
    Hs_workloads.Generators.hierarchical rng ~lam:(T.semi_partitioned m) ~n
      ~base:(2, 15) ~heterogeneity:1.6 ~overhead:0.2 ()
  in
  (* One feasibility solve per case across the ladder. *)
  let allowance = 2_000_000 in
  (* (n, m, pivot allowance).  The 10k/1k row exists to measure how far
     a bounded pivot allowance gets at that scale — a full float solve
     there runs for hours, so its row is expected (and recorded) as
     budget_exhausted rather than left open-ended. *)
  let ladder =
    if quick then [ (12, 4, allowance); (30, 8, allowance); (60, 16, allowance) ]
    else
      [
        (30, 8, allowance);
        (100, 32, allowance);
        (300, 64, allowance);
        (1000, 128, allowance);
        (3000, 512, allowance);
        (10000, 1000, 1_500);
      ]
  in
  let exact_cap = if quick then 60 else 1000 in
  let feasibility_case name f =
    match measure f with
    | ok, wall, snap ->
        ( name,
          Hs_obs.Json.Obj
            [
              ("feasible", Hs_obs.Json.Bool ok);
              ("wall_s", Hs_obs.Json.Float wall);
              ("pivots", Hs_obs.Json.Int (counter snap "simplex.pivots"));
              ("budget_exhausted", Hs_obs.Json.Bool false);
            ] )
    | exception Hs_core.Hs_error.Error (Hs_core.Hs_error.Budget_exhausted _) ->
        (name, Hs_obs.Json.Obj [ ("budget_exhausted", Hs_obs.Json.Bool true) ])
  in
  let scaling_row (n, m, row_allowance) =
    let inst = instance ~n ~m in
    match Instance.total_min_volume inst with
    | None -> None
    | Some hi ->
        (* Solve at the total minimum volume, a horizon that is always
           feasible, so every case does the same full phase-1 work.  Not
           the search's own upper end ([t_bounds], tightened by the greedy
           makespan): the ladder's horizons stay comparable across
           revisions. *)
        let exact () =
          I.lp_feasible_x ~pivots:(Hs_lp.Simplex.budget row_allowance) inst ~tmax:hi
          <> None
        in
        let cases =
          feasibility_case "sparse_float" (fun () ->
              IF.lp_feasible_x ~pivots:(Hs_lp.Simplex.budget row_allowance) inst
                ~tmax:hi
              <> None)
          ::
          (if n <= exact_cap then
             [
               feasibility_case "sparse_exact" exact;
               feasibility_case "sparse_exact_presolve" (fun () ->
                   Hs_lp.Simplex.set_presolve true;
                   Fun.protect
                     ~finally:(fun () -> Hs_lp.Simplex.set_presolve false)
                     exact);
             ]
           else [])
        in
        let wall_of name =
          match List.assoc_opt name cases with
          | Some (Hs_obs.Json.Obj fields) -> (
              match List.assoc_opt "wall_s" fields with
              | Some (Hs_obs.Json.Float w) -> Printf.sprintf "%8.3fs" w
              | _ -> "  budget!")
          | _ -> "       -"
        in
        Printf.printf "n=%-6d m=%-5d tmax=%-6d float=%s exact=%s presolve=%s\n%!"
          n m hi (wall_of "sparse_float") (wall_of "sparse_exact")
          (wall_of "sparse_exact_presolve");
        Some
          (Hs_obs.Json.Obj
             [
               ("n", Hs_obs.Json.Int n);
               ("m", Hs_obs.Json.Int m);
               ("tmax", Hs_obs.Json.Int hi);
               ("allowance", Hs_obs.Json.Int row_allowance);
               ("engines", Hs_obs.Json.Obj cases);
             ])
  in
  let scaling = List.filter_map scaling_row ladder in
  let doc =
    Hs_obs.Json.Obj
      [
        ("schema", Hs_obs.Json.String "hsched.bench.lp/1");
        ("quick", Hs_obs.Json.Bool quick);
        ("pivot_allowance", Hs_obs.Json.Int allowance);
        ("scaling", Hs_obs.Json.List scaling);
      ]
  in
  let oc = open_out "BENCH_lp.json" in
  output_string oc (Hs_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_lp.json"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "quick" args in
  let jobs =
    let rec find = function
      | "--jobs" :: v :: _ -> (
          match int_of_string_opt v with
          | Some j -> Hs_exec.resolve_jobs j
          | None -> failwith "bench: --jobs expects an integer")
      | _ :: rest -> find rest
      | [] -> 1
    in
    find args
  in
  let which =
    if List.mem "experiments" args then `Experiments
    else if List.mem "timings" args then `Timings
    else if List.mem "parallel" args then `Parallel
    else if List.mem "service" args then `Service
    else if List.mem "online" args then `Online
    else if List.mem "lp" args then `Lp
    else `Both
  in
  (match which with
  | `Experiments | `Both ->
      print_endline "== Evaluation suite (DESIGN.md section 4; see EXPERIMENTS.md) ==";
      Hs_experiments.Experiments.all ~quick ~jobs ()
  | `Timings | `Parallel | `Service | `Online | `Lp -> ());
  (match which with
  | `Parallel -> run_parallel ~quick ()
  | `Service -> run_service ~quick ~jobs ()
  | `Online -> run_online ~quick ~jobs ()
  | `Lp -> run_lp ~quick ()
  | _ -> ());
  match which with
  | `Timings | `Both -> run_timings ()
  | `Experiments | `Parallel | `Service | `Online | `Lp -> ()

(* online-growth and online-churn: trace -> replay, one event per op
   through a streaming Replay.Session with inline certification and the
   default warm start, as [hsched online --check] and the daemon's
   online verb run it.

   Growth fills the machines up to 12 live jobs and never lets them go
   voluntarily, so every event after the first few re-runs Theorem V.2
   on about 12 jobs: the search and the warm start dominate.  Churn
   keeps at most 8 jobs live with departures and three drains, so the
   LPs are small and the fixed per-event costs (closure, greedy
   placement, bookkeeping, certification) dominate; departures and drains take the replay's
   removal and forced-migration paths. *)

module Replay = Hs_online.Replay
module Trace = Hs_online.Trace
module Tracer = Hs_obs.Tracer
module T = Hs_laminar.Topology

type family = Growth | Churn

let smp = T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2

(* (events per trace, traces per pass, traces in the pool).  Several
   short traces per pass, rather than one long one, average out the
   per-trace draws (machine speeds, job sizes) that set how hard a whole
   trace is.  Later passes replay further traces from the pool, cycling
   through it if a fast build gets that far.

   A growth trace's cost per event is set by the whole trace: replayed
   alone, traces of 40, 100 and 250 events spread 42%, 39% and 23%
   (standard deviation over mean), so the spread of a fixed number of
   events shrinks as the traces get shorter.  Growth therefore runs many
   40-event traces, each ramping up to 12 live jobs in its first 12
   events.  A pass is 1600 events, fewer than a run of 30 s replays even
   on a slow host, so the run stays near its 30 s. *)
let shape family = function
  | Work.Toy -> (40, 1, 1)
  | Work.Full -> ( match family with Growth -> (40, 40, 96) | Churn -> (1000, 3, 12))

let generate (ctx : Work.ctx) family =
  let rng = Work.rng ctx (match family with Growth -> 2 | Churn -> 3) in
  let events, _, pool = shape family ctx.size in
  Array.init pool (fun _ ->
      let seed = Hs_workloads.Rng.int rng (1 lsl 30) in
      let tr =
        match family with
        | Growth ->
            (* The toy pass caps growth lower to keep the smoke rule fast. *)
            let max_live = match ctx.size with Work.Full -> 12 | Work.Toy -> 6 in
            Hs_workloads.Generators.trace ~seed ~lam:smp ~events ~base:(1, 9)
              ~heterogeneity:1.3 ~overhead:0.2 ~departures:0.0 ~max_live ()
        | Churn ->
            Hs_workloads.Generators.trace ~seed ~lam:smp ~events ~base:(1, 9)
              ~heterogeneity:1.5 ~overhead:0.15 ~departures:0.35 ~drains:3 ~max_live:8
              ()
      in
      Array.of_list (Trace.events tr))

let session () =
  match Replay.Session.create ~check:true smp with
  | Ok s -> s
  | Error e -> failwith ("online: " ^ e)

let run family (ctx : Work.ctx) : Work.result =
  let (traces, first), setup =
    Work.setup (fun () ->
        let traces = generate ctx family in
        (traces, session ()))
  in
  let events, per_pass, _ = shape family ctx.size in
  let pass = events * per_pass in
  let fp = Work.first_pass () in
  let failed = ref 0 in
  let counts = Layers.counts () in
  let by_kind = [| Work.samples (); Work.samples (); Work.samples () |] in
  let sess = ref first and trace = ref 0 and pos = ref 0 in
  let resolves = ref 0 and adoptions = ref 0 in
  let retire () =
    let s = Replay.Session.summary !sess in
    resolves := !resolves + s.Replay.resolves;
    adoptions := !adoptions + s.Replay.adoptions
  in
  let op k =
    if !pos = Array.length traces.(!trace) then begin
      retire ();
      trace := (!trace + 1) mod Array.length traces;
      pos := 0;
      sess := session ()
    end;
    let ((_, ev) as e) = traces.(!trace).(!pos) in
    incr pos;
    let t0 = Clock.now_ns () in
    let r =
      Layers.measure counts (fun () ->
          Tracer.with_span ~cat:"bench" "bench.step" (fun () -> Replay.Session.step !sess e))
    in
    let kind = match ev with Trace.Arrive _ -> 0 | Trace.Depart _ -> 1 | Trace.Drain _ -> 2 in
    Work.push by_kind.(kind) (Clock.ms_since t0);
    match r with
    | Ok ({ Replay.verdict = Some v; _ } as step) when Hs_check.Verdict.ok v ->
        if k < pass then Work.record fp ~t_lp:step.Replay.t_lp ~makespan:step.Replay.makespan
    | Ok _ | Error _ -> incr failed
  in
  Work.start_tracing ctx;
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let speed = Work.speed () in
  let n, elapsed, lat = Work.closed_loop ctx ~pass ~setup ~speed op in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  Tracer.disable ();
  retire ();
  let t = Work.traced_tally ctx in
  Work.write_trace ctx;
  let per_event x = float_of_int x /. float_of_int n in
  let kind_p50 name i =
    let v = Work.values by_kind.(i) in
    if Array.length v = 0 then [] else [ (name, Stats.median v) ]
  in
  let simplex_ms = List.assoc_opt "lp.simplex_ms" (Layers.pipeline_metrics t) in
  {
    Work.attempted = n;
    failed = !failed;
    digest = Work.digest fp;
    ratio_mean = Work.ratio_mean fp;
    slowdown = Work.slowdown speed;
    flags = [];
    metrics =
      [
        ("setup_s", Work.setup_s ctx setup);
        ("ops_per_s", float_of_int n /. elapsed);
        ("peak_rss_mb", Work.peak_rss_mb "self");
        ("alloc.step_mwords", counts.minor_words /. float_of_int n /. 1e6);
        ("gc.major_collections", float_of_int majors);
        ("replay.resolves", per_event !resolves);
        ("replay.adoptions", per_event !adoptions);
        ("replay.pivots_per_event", per_event (Layers.count counts "simplex.pivots"));
      ]
      @ Work.latency_metrics ~p99:true lat
      @ kind_p50 "replay.arrival_p50_ms" 0
      @ kind_p50 "replay.departure_p50_ms" 1
      @ kind_p50 "replay.drain_p50_ms" 2
      @ Layers.lp_metrics counts ~solves:!resolves ~simplex_ms
      @
      if ctx.traced then
        let per k = Layers.get t k /. float_of_int n /. 1e6 in
        Work.span_metrics ~ops:n t
        @ [
            ("replay.resolve_ms", per "pipeline.solve.dur");
            ( "replay.step_self_ms",
              (Layers.get t "bench.step.dur" -. Layers.get t "pipeline.solve.dur")
              /. float_of_int n /. 1e6 );
          ]
      else [];
  }

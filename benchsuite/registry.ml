(* The catalogue of every metric the suite reports.

   The metrics BENCHMARK.json lists are defined there and nowhere else:
   name, unit, direction and, for the end-to-end ones, the bound
   [compare] applies.  Every workload reports all of them.  This module
   adds what that file cannot hold: the metrics only some workloads
   report (they appear in the suite's own result files), the absolute
   floor of [setup_s], and what each layer metric should move.

   [bound] is the share of the baseline median by which an end-to-end
   metric may worsen before [compare] calls it a regression; [floor] is
   an absolute tolerance (in the metric's unit) under which no change
   counts. *)

module Json = Hs_obs.Json

type better = Lower | Higher | Exact
type kind = End_to_end | Layer

type t = {
  name : string;
  unit_ : string;
  better : better;
  kind : kind;
  bound : float;
  floor : float;
  about : string;  (** for layer metrics: what it should move *)
}

type catalogue = {
  run_seconds : float;
  workloads : string list;
  end_to_end : t list;  (** as BENCHMARK.json lists them *)
  per_layer : t list;  (** as BENCHMARK.json lists them *)
  all : t list;  (** the above, then the suite's own *)
}

(* The bounds in BENCHMARK.json: 0.25 for every timing, the most the
   benchmark's contract allows, since runs on ten seeds spread up to 18%
   (upper minus lower quartile, over the median) even with the timings
   scaled to the host's usual speed; 0.15 for peak_rss_mb, whose spread
   reached 8% on online-churn, where the seed sets how far the heap grows.

   A set-up of a few milliseconds moves by more than its bound whenever
   the machine hiccups; under 20 ms no change counts. *)
let floors = [ ("setup_s", 0.02) ]

(* What each layer metric of BENCHMARK.json should move. *)
let moves =
  [
    ( "pipeline.solve_ms",
      "Hs_core.Approx, one Theorem V.2 solve; moves ops_per_s and op_p50_ms on certify-batch \
       and op_p95_ms on online-growth" );
    ( "pipeline.search_ms",
      "Hs_core.Ilp binary-search probes with their LPs, per solve; a search that probes \
       fewer horizons moves it, hence op_p95_ms/op_p99_ms on online-growth, while \
       online-churn and service-mixed stay about flat" );
    ("pipeline.search_probes", "probes per solve; a search change moves it exactly");
    ("pipeline.restricted_lp_ms", "the unrelated-machines re-solve at T* (Hs_core.Ilp), per solve");
    ( "pipeline.round_ms",
      "Hs_core.Lst_rounding, per solve; moves op_p50_ms on online-churn at most" );
    ("pipeline.alg23_ms", "Hs_core.Hierarchical Algorithms 2-3, per solve");
    ("lp.build_ms", "Hs_core.Ilp relaxation build and solution extraction, per solve");
    ( "lp.simplex_ms",
      "Hs_lp simplex time, per solve; pricing and refactorisation changes move it and \
       ops_per_s on certify-batch" );
    ("lp.solves", "LP solves per pipeline solve");
    ("lp.pivots", "simplex pivots per pipeline solve");
    ("lp.us_per_pivot", "simplex time per pivot; exact-Q work shows here");
    ( "lp.warm_hit_ratio",
      "warm-start hits over hits plus misses (0 where every solve is cold); warm/dual \
       restarts move it and op_p95_ms on online-growth" );
    ("lp.warm_repairs", "warm-start basis repairs per pipeline solve");
    ( "op.outside_pipeline_ms",
      "op time outside Hs_core.Approx: parsing and checking, replay bookkeeping, or \
       service framing, queueing and rendering" );
    ("trace.coverage_pct", "share of op wall time covered by named layer spans");
  ]

let e2e name unit_ better bound = { name; unit_; better; kind = End_to_end; bound; floor = 0.; about = "" }
let layer name unit_ better about = { name; unit_; better; kind = Layer; bound = 0.; floor = 0.; about }

(* Metrics only some workloads report, kept in the suite's result files. *)
let suite_only =
  [
    (* 99th-percentile event latency of the replays, over 1000 samples a
       run; bounded like the other latencies. *)
    e2e "op_p99_ms" "ms" Lower 0.25;
    (* errors, sheds, timeouts and uncertified ops over ops attempted *)
    e2e "failed_frac" "ratio" Lower 0.;
    (* mean makespan over T* on the first pass; must repeat exactly *)
    e2e "ratio_mean" "ALG/T*" Exact 0.;
    layer "pipeline.self_ms" "ms" Lower
      "Hs_core.Approx own work: singleton closure, restriction, lifting";
    layer "pipeline.search_self_ms" "ms" Lower "search bookkeeping between probe LPs, per solve";
    layer "io.parse_ms" "ms" Lower
      "Hs_model.Instance_io.of_string per op: the control metric, nothing should move it";
    layer "check.structural_ms" "ms" Lower
      "Hs_check.Certify.outcome ~lp:false per op; moves ops_per_s on certify-batch only";
    layer "check.lp_bound_ms" "ms" Lower
      "Hs_check.Check.lp_lower_bound per op (two exact LP solves); verifying a claimed \
       basis instead of re-solving moves it and ops_per_s on certify-batch only";
    layer "alloc.pipeline_mwords" "Mword" Lower
      "minor words allocated by the pipeline per op; cheaper exact rationals move it, \
       ops_per_s on certify-batch and op_p50_ms on online-growth";
    layer "alloc.check_mwords" "Mword" Lower "minor words allocated by the checker per op";
    layer "alloc.step_mwords" "Mword" Lower
      "minor words allocated per replayed event, re-solve and certification included";
    layer "gc.major_collections" "count" Lower "major collections during the measured loop";
    layer "lp.warm_hits" "count" Higher "warm-start hits per pipeline solve";
    layer "lp.warm_misses" "count" Lower "warm-start misses per pipeline solve";
    layer "replay.arrival_p50_ms" "ms" Lower "median step latency of arrivals";
    layer "replay.departure_p50_ms" "ms" Lower "median step latency of departures";
    layer "replay.drain_p50_ms" "ms" Lower "median step latency of drains";
    layer "replay.resolve_ms" "ms" Lower
      "Theorem V.2 re-solve per event; moves op_p99_ms on online-growth";
    layer "replay.step_self_ms" "ms" Lower
      "Hs_online.Replay bookkeeping and certification per event; moves op_p50_ms on \
       online-churn";
    layer "replay.resolves" "count" Lower "re-solves per event";
    layer "replay.adoptions" "count" Higher "adopted re-solves per event";
    layer "replay.pivots_per_event" "count" Lower "simplex pivots per event";
    layer "service.high_rate_p50_ms" "ms" Lower
      "median latency of the high-rate open loop, from the due time: Hs_service queueing \
       at half capacity, which amplifies any slower solve (and any slower machine) \
       several times over, so it is reported, not gated";
    layer "service.high_rate_p95_ms" "ms" Lower
      "95th-percentile latency of the high-rate open loop, as the median";
    layer "service.miss_p50_ms" "ms" Lower "closed-loop latency of cache misses; LP changes move it";
    layer "service.hit_p50_ms" "ms" Lower
      "closed-loop latency of cache hits; must not move with LP changes";
    layer "service.queue_p50_le_ms" "ms" Lower "daemon queue wait, histogram bucket bound";
    layer "service.solve_p50_le_ms" "ms" Lower "daemon solve phase, histogram bucket bound";
    layer "service.render_p50_le_ms" "ms" Lower "daemon render phase, histogram bucket bound";
    layer "service.write_p50_le_ms" "ms" Lower "daemon write phase, histogram bucket bound";
    layer "service.cache_hit_ratio" "ratio" Higher "daemon cache hits over lookups";
    layer "service.shed" "count" Lower "requests the admission queue shed";
    layer "service.batch_size_mean" "count" Higher "requests per daemon batch";
    layer "service.bytes_per_req" "B" Lower "framed bytes in and out per request";
    layer "generator.lag_p95_ms" "ms" Lower
      "open-loop sender lateness; validity only, over 5 ms the run is flagged";
    layer "generator.lag_max_ms" "ms" Lower "largest open-loop sender lateness";
    layer "machine.slowdown" "ratio" Lower
      "the speed kernel's mean time in the run over its reference time; every \
       end-to-end timing of the run is scaled by it, no change to the program moves it";
    layer "trace.overhead_pct" "%" Lower
      "traced throughput against one untraced run of the same seed and length, made just \
       before it";
  ]

(* Read the catalogue from BENCHMARK.json; raises [Failure] with a
   message naming the file when it is missing or malformed. *)
let load path =
  let fail fmt = Printf.ksprintf (fun s -> failwith (path ^ ": " ^ s)) fmt in
  let text =
    try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> fail "%s" e
  in
  let doc = match Json.parse text with Ok d -> d | Error e -> fail "%s" e in
  let entries k = match Json.member k doc with Some (Json.List l) -> l | _ -> fail "no %s list" k in
  let str k j = match Json.member k j with Some (Json.String s) -> s | _ -> fail "entry without %s" k in
  let num k j =
    match Json.member k j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> fail "entry without a numeric %s" k
  in
  let entry kind j =
    let name = str "name" j in
    {
      name;
      unit_ = str "unit" j;
      better =
        (match str "better" j with
        | "lower" -> Lower
        | "higher" -> Higher
        | s -> fail "%s: better is %S" name s);
      kind;
      bound = (match kind with End_to_end -> num "bound" j | Layer -> 0.);
      floor = Option.value ~default:0. (List.assoc_opt name floors);
      about = Option.value ~default:"" (List.assoc_opt name moves);
    }
  in
  let end_to_end = List.map (entry End_to_end) (entries "end_to_end") in
  let per_layer = List.map (entry Layer) (entries "per_layer") in
  {
    run_seconds = num "run_seconds" doc;
    workloads = List.map (str "name") (entries "workloads");
    end_to_end;
    per_layer;
    all = end_to_end @ per_layer @ suite_only;
  }

let find cat name = List.find_opt (fun m -> m.name = name) cat.all

let unit_of cat name = match find cat name with Some m -> m.unit_ | None -> ""

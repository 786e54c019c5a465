(* certify-batch: instance text -> certified schedule, one caller in a
   closed loop.  One op parses an instance, runs the Theorem V.2 pipeline
   and certifies the outcome with the LP bound re-derived, which is what
   [hsched solve --check] does per file.  The certificate is taken as its
   two halves (Certify.outcome ~lp:false, then Check.lp_lower_bound) so
   each half can be timed; together they are Certify.outcome ~lp:true. *)

open Hs_model
module T = Hs_laminar.Topology
module A = Hs_core.Approx.Exact
module Tracer = Hs_obs.Tracer

let smp = T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2

(* One pass: two seeded instances per (family, size) cell.  The three
   families stress the LP differently: a flat semi-partitioned one, a
   two-level clustered one on 16 machines, and a three-level SMP-CMP
   tree.  Their sizes are set so an op costs about the same in each
   family (50 ms on a 2-core runner); otherwise a handful of the largest
   instances would carry most of the run and the result would rest on
   how heavy the seed happened to draw them. *)
let cells = function
  | Work.Full ->
      List.concat_map
        (fun (lam, sizes) -> List.concat_map (fun n -> [ (lam, n); (lam, n) ]) sizes)
        [
          (T.semi_partitioned 8, [ 12; 13; 14 ]);
          (T.clustered ~m:16 ~clusters:4, [ 14; 15; 16 ]);
          (smp, [ 10; 11; 12 ]);
        ]
  | Work.Toy -> [ (T.semi_partitioned 8, 8); (smp, 8) ]

(* Distinct passes generated up front; later passes cycle through them.
   More than one pass keeps the run's mean cost from resting on the
   handful of instances a single pass draws. *)
let passes = function Work.Full -> 40 | Work.Toy -> 1

let generate (ctx : Work.ctx) =
  let rng = Work.rng ctx 1 in
  let cells = cells ctx.size in
  Array.of_list
    (List.concat
       (List.init (passes ctx.size) (fun _ ->
            List.map
              (fun (lam, n) ->
                Instance_io.to_string
                  (Hs_workloads.Generators.hierarchical
                     (Hs_workloads.Rng.split rng)
                     ~lam ~n ~base:(2, 15) ~heterogeneity:1.6 ~overhead:0.2 ()))
              cells)))

let run (ctx : Work.ctx) : Work.result =
  let pool, setup = Work.setup (fun () -> generate ctx) in
  let pass = List.length (cells ctx.size) in
  let fp = Work.first_pass () in
  let failed = ref 0 in
  let pipeline = Layers.counts () and check = Layers.counts () in
  let span name f = Tracer.with_span ~cat:"bench" name f in
  let op k =
    let ok =
      match span "bench.parse" (fun () -> Instance_io.of_string pool.(k mod Array.length pool)) with
      | Error _ -> false
      | Ok inst -> (
          match Layers.measure pipeline (fun () -> span "bench.solve" (fun () -> A.solve_checked inst)) with
          | Error _ -> false
          | Ok o ->
              let structural =
                Layers.measure check (fun () ->
                    span "bench.certify" (fun () -> Hs_check.Certify.outcome ~lp:false o))
              in
              let lp_bound =
                Layers.measure check (fun () ->
                    span "bench.lp_bound" (fun () ->
                        Hs_check.Check.lp_lower_bound o.A.instance ~t_lp:o.A.t_lp))
              in
              if k < pass then Work.record fp ~t_lp:o.A.t_lp ~makespan:o.A.makespan;
              Hs_check.Verdict.ok structural
              && List.for_all (fun (i : Hs_check.Verdict.item) -> i.ok) lp_bound
              && o.A.makespan <= 2 * o.A.t_lp)
    in
    if not ok then incr failed
  in
  Work.start_tracing ctx;
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let speed = Work.speed () in
  let n, elapsed, lat = Work.closed_loop ctx ~pass ~setup ~speed op in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  Tracer.disable ();
  let t = Work.traced_tally ctx in
  Work.write_trace ctx;
  let per_op k = Layers.get t k /. float_of_int n /. 1e6 in
  let solves = n - !failed in
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
        ("alloc.pipeline_mwords", pipeline.minor_words /. float_of_int n /. 1e6);
        ("alloc.check_mwords", check.minor_words /. float_of_int n /. 1e6);
        ("gc.major_collections", float_of_int majors);
      ]
      @ Work.latency_metrics lat
      @ Layers.lp_metrics pipeline ~solves ~simplex_ms
      @
      if ctx.traced then
        Work.span_metrics ~ops:n t
        @ [
            ("io.parse_ms", per_op "bench.parse.dur");
            ("check.structural_ms", per_op "bench.certify.dur");
            ("check.lp_bound_ms", per_op "bench.lp_bound.dur");
          ]
      else [];
  }

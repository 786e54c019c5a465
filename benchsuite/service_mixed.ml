(* service-mixed: request -> response through the daemon, run as its own
   process ([hsched serve --jobs 1]) so the client's minor collections
   never pause it.  Each request is one instance with 6 to 9 jobs on 8
   machines in one of three families; 80% are first seen (cache misses),
   20% repeat one of the last 32 (hits bypass the solver).  Solves take
   about 4 ms, so framing, the admission queue, the cache, rendering and
   the write carry a real share, and the open-loop tails do not hang on
   a few large instances.

   Three phases, each on fresh instances:
   - A: open loop at [low_rps] on one connection;
   - B: open loop at [high_rps] on one connection;
   - C: closed loop on two connections.
   An open loop has a sender thread that sends at fixed due times and a
   receiver thread that matches responses by id; latency runs from the
   due time, so a stall also charges the requests queued behind it.  The
   rates are about 1/4 and 1/2 of the phase-C capacity measured at the
   baseline (about 240 responses/s on a 2-core runner).  The shared
   op_p50_ms/op_p95_ms are phase A's; phase B's queueing-amplified
   latencies are reported as service.high_rate_p50_ms/_p95_ms.  The load
   uses at most two threads and two connections. *)

open Hs_model
module P = Hs_service.Protocol
module C = Hs_service.Client
module Json = Hs_obs.Json
module Metrics = Hs_obs.Metrics
module Tracer = Hs_obs.Tracer
module T = Hs_laminar.Topology
module Rng = Hs_workloads.Rng

let low_rps = 60.
let high_rps = 120.

(* Shares of the run's seconds: A, B, then C fills the rest. *)
let share_a = 0.4
let share_b = 0.25
let share_c = 0.35

(* The phases take turns, A B C A B C ..., so a slow spell of a shared
   machine spreads over all three metrics instead of landing on one. *)
let rounds = function Work.Full -> 3 | Work.Toy -> 1

let families =
  [|
    T.semi_partitioned 8;
    T.clustered ~m:8 ~clusters:2;
    T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2;
  |]

type request = { text : string; key : int  (** repeats share the key of their first *) }

(* [count] requests of one phase (or one phase-C connection), [stream]
   keeping keys distinct across streams. *)
let sequence rng ~stream count =
  let firsts = Array.make count { text = ""; key = 0 } in
  let fresh = ref 0 in
  Array.init count (fun _ ->
      if !fresh > 0 && Rng.bool rng 0.2 then
        firsts.(!fresh - 1 - Rng.int rng (Stdlib.min 32 !fresh))
      else begin
        let inst =
          Hs_workloads.Generators.hierarchical (Rng.split rng)
            ~lam:(Rng.choose rng families) ~n:(Rng.int_range rng 6 9) ~base:(1, 9)
            ~heterogeneity:1.5 ~overhead:0.2 ()
        in
        let r = { text = Instance_io.to_string inst; key = (stream * 1_000_000) + !fresh } in
        firsts.(!fresh) <- r;
        incr fresh;
        r
      end)

type plan = {
  warmup : request array;
  phase_a : request array;
  phase_b : request array;
  phase_c : request array array;  (** one stream per connection *)
}

(* Phase C is time-bounded; its streams hold about twice what the
   baseline capacity can take in the time, and end the phase early if a
   much faster daemon drains them. *)
let plan (ctx : Work.ctx) =
  let s = ctx.seconds in
  let count rate share = Stdlib.max 6 (int_of_float (Float.round (rate *. share *. s))) in
  let per_conn = Stdlib.max 4 (int_of_float (ceil (2. *. high_rps *. share_c *. s))) in
  let rng = Work.rng ctx 4 in
  {
    warmup = sequence (Rng.split rng) ~stream:0 (match ctx.size with Work.Full -> 20 | Work.Toy -> 4);
    phase_a = sequence (Rng.split rng) ~stream:1 (count low_rps share_a);
    phase_b = sequence (Rng.split rng) ~stream:2 (count high_rps share_b);
    phase_c = Array.init 2 (fun c -> sequence (Rng.split rng) ~stream:(3 + c) per_conn);
  }

(* ---- the daemon process ------------------------------------------------ *)

type daemon = { pid : int; sock : string; control : C.t }

let live : int list ref = ref []

(* A daemon left behind by an exception or a termination signal must
   not outlive the run. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143)))
    [ Sys.sigterm; Sys.sigint ]

let spawned = ref 0

let call_ok c req =
  match C.call ~timeout_s:30. c req with
  | Ok r when r.P.status = 0 -> r
  | Ok r -> failwith ("service-mixed: daemon answered status " ^ string_of_int r.P.status ^ ": " ^ r.P.error)
  | Error e -> failwith ("service-mixed: " ^ e)

let solve ?trace_id r =
  P.Solve { instance_text = r.text; budget = None; deadline_ms = None; trace_id }

(* Spawn the daemon and wait until it answers a ping. *)
let spawn (ctx : Work.ctx) =
  incr spawned;
  let sock = Printf.sprintf ".hsbench-%d-%d.sock" (Unix.getpid ()) !spawned in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process ctx.hsched
      [| ctx.hsched; "serve"; "--socket"; sock; "--jobs"; "1"; "--quiet" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  let rec connect tries =
    match C.connect ~retries:0 sock with
    | Ok c -> c
    | Error e ->
        if tries = 0 then failwith ("service-mixed: daemon never listened: " ^ e);
        Unix.sleepf 0.002;
        connect (tries - 1)
  in
  let control = connect 5000 in
  ignore (call_ok control P.Ping);
  { pid; sock; control }

let stop d =
  ignore (C.call ~timeout_s:30. d.control P.Shutdown);
  C.close d.control;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

let introspect d =
  let r = call_ok d.control (P.Introspect { recent = false }) in
  match Json.parse r.P.body with
  | Error e -> failwith ("service-mixed: introspect: " ^ e)
  | Ok doc -> (
      match Option.map Metrics.of_json (Json.member "metrics" doc) with
      | Some (Ok snap) -> snap
      | _ -> failwith "service-mixed: introspect body lacks metrics")

(* ---- load generation --------------------------------------------------- *)

type answer = {
  req : request;
  resp : P.response option;  (** [None]: lost or timed out *)
  latency_ms : float;
  lag_ms : float;  (** open loop: how late the sender ran *)
  start_ns : int64;
}

let connect d =
  match C.connect d.sock with Ok c -> c | Error e -> failwith ("service-mixed: " ^ e)

let trace_id (ctx : Work.ctx) phase i =
  if ctx.traced then Some (Printf.sprintf "bench-%s-%d" phase i) else None

let open_loop ctx d ~phase ~rate reqs =
  let c = connect d in
  let n = Array.length reqs in
  let frames =
    Array.mapi
      (fun i r ->
        Hs_service.Frame.encode
          (Json.to_string (P.request_to_json ~id:i (solve ?trace_id:(trace_id ctx phase i) r))))
      reqs
  in
  let recv = Array.make n 0L and resp = Array.make n None in
  let receiver =
    Thread.create
      (fun () ->
        let rec loop got =
          if got < n then
            match C.read_response ~timeout_s:30. c with
            | Ok (Some r) when r.P.rid >= 0 && r.P.rid < n && resp.(r.P.rid) = None ->
                recv.(r.P.rid) <- Clock.now_ns ();
                resp.(r.P.rid) <- Some r;
                loop (got + 1)
            | Ok (Some _) -> loop got
            | Ok None | Error _ -> ()
        in
        loop 0)
      ()
  in
  let gap = 1e9 /. rate in
  let t0 = Int64.add (Clock.now_ns ()) 5_000_000L in
  let due i = Int64.add t0 (Int64.of_float (float_of_int i *. gap)) in
  let lag = Array.make n 0. in
  Array.iteri
    (fun i frame ->
      Clock.sleep_until (due i);
      lag.(i) <- Clock.ms_since (due i);
      ignore (C.send_raw c frame))
    frames;
  Thread.join receiver;
  C.close c;
  Array.init n (fun i ->
      {
        req = reqs.(i);
        resp = resp.(i);
        latency_ms =
          (if resp.(i) = None then nan else Clock.ms_of_ns (Int64.sub recv.(i) (due i)));
        lag_ms = lag.(i);
        start_ns = due i;
      })

(* Two callers, one connection each, for [seconds] (at least four
   requests each); [next] holds each stream's position across rounds.
   Returns the answers and the elapsed seconds. *)
let closed_loop (ctx : Work.ctx) d ~seconds streams next =
  let t0 = Clock.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let finish = Array.make (Array.length streams) t0 in
  let out = Array.make (Array.length streams) [] in
  let worker ci =
    let c = connect d in
    let reqs = streams.(ci) in
    let rec go k =
      let i = next.(ci) in
      if i < Array.length reqs && (k < 4 || Clock.now_ns () < deadline) then begin
        let s = Clock.now_ns () in
        let trace_id = trace_id ctx (Printf.sprintf "c%d" ci) i in
        let resp = Result.to_option (C.call ~timeout_s:30. c (solve ?trace_id reqs.(i))) in
        let a = { req = reqs.(i); resp; latency_ms = Clock.ms_since s; lag_ms = 0.; start_ns = s } in
        out.(ci) <- a :: out.(ci);
        next.(ci) <- i + 1;
        if resp <> None then go (k + 1)
      end
    in
    go 0;
    finish.(ci) <- Clock.now_ns ();
    C.close c
  in
  Array.iter Thread.join (Array.init (Array.length streams) (Thread.create worker));
  let answers = Array.concat (List.map (fun l -> Array.of_list (List.rev l)) (Array.to_list out)) in
  (answers, Clock.ms_of_ns (Int64.sub (Array.fold_left max t0 finish) t0) /. 1e3)

(* ---- verification ------------------------------------------------------ *)

(* T* and the makespan from a rendered [hsched solve] report; [None]
   unless the report also says the schedule is valid. *)
let parse_body body =
  let t_lp = ref None and makespan = ref None and valid = ref false in
  List.iter
    (fun line ->
      (try Scanf.sscanf line "LP lower bound T* = %d" (fun v -> t_lp := Some v) with _ -> ());
      (try Scanf.sscanf line "achieved makespan = %d" (fun v -> makespan := Some v) with _ -> ());
      if String.length line >= 15 && String.sub line 0 15 = "schedule: VALID" then valid := true)
    (String.split_on_char '\n' body);
  match (!t_lp, !makespan) with Some t, Some m when !valid -> Some (t, m) | _ -> None

(* Status 0, a parseable report within the factor-2 envelope, and a
   repeat byte-identical to its first answer. *)
let verify firsts a =
  match a.resp with
  | Some r when r.P.status = 0 -> (
      match parse_body r.P.body with
      | Some (t, m) when m <= 2 * t -> (
          match Hashtbl.find_opt firsts a.req.key with
          | Some body -> if String.equal body r.P.body then Some (t, m) else None
          | None ->
              Hashtbl.add firsts a.req.key r.P.body;
              Some (t, m))
      | _ -> None)
  | _ -> None

(* ---- daemon-side numbers ------------------------------------------------ *)

let hist_delta (before : Metrics.snapshot) (after : Metrics.snapshot) name =
  match (Metrics.find_histogram after name, Metrics.find_histogram before name) with
  | Some a, Some b ->
      Some
        {
          a with
          Metrics.counts = Array.mapi (fun i c -> c - b.Metrics.counts.(i)) a.Metrics.counts;
          sum = a.Metrics.sum - b.Metrics.sum;
          observations = a.Metrics.observations - b.Metrics.observations;
        }
  | Some a, None -> Some a
  | None, _ -> None

(* The smallest bucket bound covering the median. *)
let p50_le (h : Metrics.hist_snapshot) =
  let want = Stdlib.max 1 ((h.observations + 1) / 2) in
  let rec go i cum = function
    | [] -> float_of_int (List.fold_left Stdlib.max 0 h.buckets)
    | b :: rest ->
        let cum = cum + h.counts.(i) in
        if cum >= want then float_of_int b else go (i + 1) cum rest
  in
  go 0 0 h.buckets

let counter_delta ~before ~after k =
  let v s = Option.value ~default:0 (Metrics.find_counter s k) in
  v after - v before

let daemon_metrics ~before ~after ~requests =
  let d = counter_delta ~before ~after in
  let hits = d "service.cache.hit" and misses = d "service.cache.miss" in
  let phase label name =
    match hist_delta before after name with
    | Some h when h.Metrics.observations > 0 -> [ (label, p50_le h) ]
    | _ -> []
  in
  [
    ("service.cache_hit_ratio", float_of_int hits /. float_of_int (Stdlib.max 1 (hits + misses)));
    ("service.shed", float_of_int (d "service.shed"));
    ( "service.bytes_per_req",
      float_of_int (d "frame.bytes.in" + d "frame.bytes.out") /. float_of_int requests );
  ]
  @ (match hist_delta before after "service.batch.size" with
    | Some h when h.Metrics.observations > 0 ->
        [ ("service.batch_size_mean", float_of_int h.sum /. float_of_int h.observations) ]
    | _ -> [])
  @ phase "service.queue_p50_le_ms" "service.phase.queue_ms"
  @ phase "service.solve_p50_le_ms" "service.phase.solve_ms"
  @ phase "service.render_p50_le_ms" "service.phase.render_ms"
  @ phase "service.write_p50_le_ms" "service.phase.write_ms"

(* Traced run: the daemon's spans ride back on each traced response, one
   whole batch per response; each batch is tallied once.  Coverage is
   taken over the open-loop requests, whose latency starts at the due
   time: the sender's lag, the request's own queue wait and its batch are
   the named layers; the rest is socket and event-loop time the daemon
   has no span for. *)
let traced_metrics ~answers ~open_answers =
  let spans_of a =
    match a.resp with
    | None -> []
    | Some r -> List.filter_map (fun j -> Result.to_option (Tracer.span_of_json j)) r.P.spans
  in
  let t = Layers.create () and seen = Hashtbl.create 256 and batches = ref [] in
  Array.iter
    (fun a ->
      let spans = spans_of a in
      match List.find_opt (fun (s : Tracer.span) -> s.name = "service.batch") spans with
      | Some b when not (Hashtbl.mem seen b.start_ns) ->
          Hashtbl.add seen b.start_ns ();
          Layers.add_spans t spans;
          batches := spans :: !batches
      | _ -> ())
    answers;
  let covered a =
    let rid = match a.resp with Some r -> r.P.rid | None -> -1 in
    List.fold_left
      (fun acc (s : Tracer.span) ->
        let own_wait =
          s.name = "service.queue.wait" && List.assoc_opt "rid" s.args = Some (Tracer.Int rid)
        in
        if own_wait || s.name = "service.batch" then acc +. Clock.ms_of_ns s.dur_ns else acc)
      a.lag_ms (spans_of a)
  in
  let sum f xs = Array.fold_left (fun acc x -> acc +. f x) 0. xs in
  let latency a = a.latency_ms in
  ( Layers.pipeline_metrics t
    @ [
        ( "op.outside_pipeline_ms",
          (sum latency answers -. (Layers.get t "pipeline.solve.dur" /. 1e6))
          /. float_of_int (Array.length answers) );
        ("trace.coverage_pct", 100. *. Float.min 1. (sum covered open_answers /. sum latency open_answers));
      ],
    List.rev !batches )

(* Client spans for the Chrome trace, shifted onto the daemon's wall
   clock so both processes line up on one timeline. *)
let export (ctx : Work.ctx) answers remote =
  match ctx.trace_out with
  | None -> ()
  | Some path ->
      let offset = Int64.sub (Int64.of_float (Unix.gettimeofday () *. 1e9)) (Clock.now_ns ()) in
      Tracer.clear ();
      Tracer.absorb ~domain:0
        (Array.to_list
           (Array.mapi
              (fun i a ->
                {
                  Tracer.name = "bench.request";
                  cat = "bench";
                  start_ns = Int64.add a.start_ns offset;
                  dur_ns = Int64.of_float (Float.max 0. a.latency_ms *. 1e6);
                  depth = 0;
                  seq = i;
                  args = [ ("cached", Tracer.Bool (match a.resp with Some r -> r.P.cached | None -> false)) ];
                })
              answers));
      List.iter Tracer.absorb_remote remote;
      (match Tracer.write_chrome path with
      | Ok () -> ()
      | Error e -> prerr_endline ("suite: cannot write trace: " ^ e));
      Tracer.clear ()

(* ---- the workload ------------------------------------------------------- *)

let run (ctx : Work.ctx) : Work.result =
  let (plan, d), setup =
    Work.setup
      ~teardown:(fun (_, d) -> stop d)
      (fun () ->
        let p = plan ctx in
        let d = spawn ctx in
        Array.iter (fun r -> ignore (call_ok d.control (solve r))) p.warmup;
        (p, d))
  in
  let before = introspect d in
  let rounds = rounds ctx.size in
  let slice reqs r =
    let n = Array.length reqs in
    Array.sub reqs (r * n / rounds) (((r + 1) * n / rounds) - (r * n / rounds))
  in
  let next = Array.make (Array.length plan.phase_c) 0 in
  (* Set-up is timed again, with a spare daemon, between phases; the
     speed kernel runs between phases too, when no request is in flight,
     and once more at the end (only then at toy size). *)
  let speed = Work.speed () in
  let t0 = Clock.now_ns () in
  let pause () =
    if ctx.size = Work.Full then Work.sample speed;
    if Work.pause_due ctx setup (Clock.s_since t0) then setup.Work.again ()
  in
  let per_round =
    List.init rounds (fun r ->
        pause ();
        let a = open_loop ctx d ~phase:(Printf.sprintf "a%d" r) ~rate:low_rps (slice plan.phase_a r) in
        pause ();
        let b = open_loop ctx d ~phase:(Printf.sprintf "b%d" r) ~rate:high_rps (slice plan.phase_b r) in
        pause ();
        let seconds = share_c *. ctx.seconds /. float_of_int rounds in
        (a, b, closed_loop ctx d ~seconds plan.phase_c next))
  in
  let a = Array.concat (List.map (fun (a, _, _) -> a) per_round) in
  let b = Array.concat (List.map (fun (_, b, _) -> b) per_round) in
  let c = Array.concat (List.map (fun (_, _, (c, _)) -> c) per_round) in
  let c_elapsed = List.fold_left (fun acc (_, _, (_, secs)) -> acc +. secs) 0. per_round in
  Work.sample speed;
  let after = introspect d in
  let peak = Work.peak_rss_mb (string_of_int d.pid) in
  stop d;
  let setup_s = Work.setup_s ctx setup in
  let firsts = Hashtbl.create 1024 in
  let fp = Work.first_pass () in
  let failed = ref 0 in
  let check ~first a =
    match verify firsts a with
    | Some (t, m) -> if first then Work.record fp ~t_lp:t ~makespan:m
    | None ->
        incr failed;
        if first then Buffer.add_string fp.Work.buf "x\n"
  in
  Array.iter (check ~first:true) a;
  Array.iter (check ~first:true) b;
  Array.iter (check ~first:false) c;
  (* Latencies of the answered requests, optionally only hits or misses. *)
  let lat ?cached answers =
    Array.of_list
      (List.filter_map
         (fun x ->
           match x.resp with
           | Some r when cached = None || cached = Some r.P.cached -> Some x.latency_ms
           | _ -> None)
         (Array.to_list answers))
  in
  let lags = Array.map (fun x -> x.lag_ms) (Array.append a b) in
  let lag_max = Array.fold_left Float.max 0. lags in
  let p50_of name xs = if Array.length xs = 0 then [] else [ (name, Stats.median xs) ] in
  let answers = Array.concat [ a; b; c ] in
  let requests = Array.length answers in
  let counts = Layers.counts () in
  Layers.snapshot_deltas counts ~before ~after;
  (* Every miss that was not coalesced is one pipeline solve. *)
  let solves = counter_delta ~before ~after "service.cache.miss" in
  let span_metrics, remote =
    if ctx.traced then traced_metrics ~answers ~open_answers:(Array.append a b) else ([], [])
  in
  export ctx answers remote;
  let simplex_ms = List.assoc_opt "lp.simplex_ms" span_metrics in
  {
    Work.attempted = requests;
    failed = !failed;
    digest = Work.digest fp;
    ratio_mean = Work.ratio_mean fp;
    slowdown = Work.slowdown speed;
    flags =
      (if lag_max > 5. then [ Printf.sprintf "open-loop generator ran %.1f ms late" lag_max ] else []);
    metrics =
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int (Array.length c) /. c_elapsed);
        ("op_p50_ms", Stats.percentile (lat a) 50.);
        ("op_p95_ms", Stats.percentile (lat a) 95.);
        ("service.high_rate_p50_ms", Stats.percentile (lat b) 50.);
        ("service.high_rate_p95_ms", Stats.percentile (lat b) 95.);
        ("peak_rss_mb", peak);
        ("generator.lag_p95_ms", Stats.percentile lags 95.);
        ("generator.lag_max_ms", lag_max);
      ]
      @ p50_of "service.miss_p50_ms" (lat ~cached:false c)
      @ p50_of "service.hit_p50_ms" (lat ~cached:true c)
      @ daemon_metrics ~before ~after ~requests
      @ Layers.lp_metrics counts ~solves ~simplex_ms
      @ span_metrics;
  }

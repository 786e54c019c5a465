(* Select-loop daemon; see the interface for the architecture. *)

module Json = Hs_obs.Json
module Metrics = Hs_obs.Metrics
module E = Hs_core.Hs_error

let c_batches = Metrics.counter "service.batches"
let h_batch = Metrics.histogram ~buckets:[ 1; 2; 4; 8; 16; 32; 64; 128 ] "service.batch.size"

(* Shed / expired requests never reach the engine, so the daemon counts
   them into the same [service.requests] cell the engine increments:
   requests = every solve received, whatever its fate. *)
let c_requests = Metrics.counter "service.requests"
let c_shed = Metrics.counter "service.shed"
let c_deadline_miss = Metrics.counter "service.deadline_miss"
let g_queue = Metrics.gauge "service.queue.depth"

(* Online streaming ops ride the same admission queue but are counted
   apart: they are session steps, not solve requests, and must not skew
   the pinned [service.requests] accounting. *)
let c_online = Metrics.counter "service.online"

(* The event loop's two latency phases; solve/render live in Solver
   (worker domains) and share the same bucket ladder. *)
let h_queue_ms = Metrics.histogram ~buckets:Solver.ms_buckets "service.phase.queue_ms"
let h_write_ms = Metrics.histogram ~buckets:Solver.ms_buckets "service.phase.write_ms"

type config = {
  socket_path : string;
  jobs : int;
  cache_capacity : int;
  default_budget : int option;
  max_batch : int;
  max_queue : int;
  retry_hint_ms : int;
  deadline_units_per_ms : int;
  io_timeout_s : float;
  snapshot_path : string option;
  verify : bool;
  recorder_capacity : int;
  max_sessions : int;  (** bound on concurrently open online sessions *)
  log : string -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = 1;
    cache_capacity = 128;
    default_budget = None;
    max_batch = 64;
    max_queue = 256;
    retry_hint_ms = 50;
    deadline_units_per_ms = Solver.default_deadline_units_per_ms;
    io_timeout_s = 10.0;
    snapshot_path = None;
    verify = false;
    recorder_capacity = 256;
    max_sessions = 16;
    log = ignore;
  }

type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  mutable alive : bool;
  mutable last_read : float;  (** for the partial-frame read deadline *)
}

(* The admission queue carries both workloads; online ops are session
   steps (stateful, processed inline and strictly in admission order),
   solves batch onto the worker pool between them. *)
type job =
  | Solve of Protocol.solve_params
  | Online of Protocol.online_params

type work = {
  w_conn : conn;
  w_rid : int;
  w_job : job;
  w_enq : float;  (** enqueue instant, for queue-expiry of deadlines *)
}

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  started : float;  (** daemon start instant, for introspection uptime *)
  mutable conns : conn list;
  queue : work Queue.t;
  mutable shed_streak : int;
      (** consecutive sheds since the last admission; positions the
          deterministic [retry_after_ms] ladder *)
  engine : Engine.t;  (** classification, cache, solving, verification *)
  recorder : Recorder.t;  (** flight recorder of recent outcomes *)
  sessions : Sessions.t;  (** live online-scheduling sessions *)
  mutable draining : (conn * int) option;  (** shutdown requester *)
}

(* ---- low-level IO ---------------------------------------------------- *)

let close_conn st c =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c' -> c' != c) st.conns
  end

(* Blocking-ish write on a nonblocking fd: wait for writability with a
   deadline so one stuck client cannot wedge the loop.  Failures just
   drop the connection — the daemon must outlive any client. *)
let write_all st c s =
  let n = String.length s in
  let pos = ref 0 in
  (try
     while c.alive && !pos < n do
       match Unix.write_substring c.fd s !pos (n - !pos) with
       | written -> pos := !pos + written
       | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> (
           match Unix.select [] [ c.fd ] [] st.cfg.io_timeout_s with
           | [], [], [] -> close_conn st c (* write deadline expired *)
           | _ -> ()
           | exception Unix.Unix_error (EINTR, _, _) -> ())
       | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
           close_conn st c
     done
   with Unix.Unix_error _ -> close_conn st c);
  c.alive

let wall_ms t0 = int_of_float (((Unix.gettimeofday () -. t0) *. 1000.0) +. 0.5)

let send st c (r : Protocol.response) =
  let t0 = Unix.gettimeofday () in
  ignore (write_all st c (Frame.encode (Json.to_string (Protocol.response_to_json r))));
  Metrics.observe h_write_ms (wall_ms t0)

(* ---- request handling ------------------------------------------------ *)

let protocol_err st c ~rid msg =
  send st c (Protocol.err ~rid ~status:2 ("protocol error: " ^ msg))

(* Deterministic counters only (sorted by name): the queue-depth
   high-water gauge depends on read chunking, so it stays registry-only
   ([--stats-json]) and out of the pinned [stats] verb. *)
let stats_body () =
  let snap = Metrics.snapshot () in
  let v name = Option.value ~default:0 (Metrics.find_counter snap name) in
  String.concat "\n"
    (List.map
       (fun name -> Printf.sprintf "%s = %d" name (v name))
       [
         "service.cache.evict";
         "service.cache.hit";
         "service.cache.miss";
         "service.deadline_miss";
         "service.requests";
         "service.shed";
         "service.snapshot.loaded";
         "service.snapshot.rejected";
       ])

let introspect_schema = "hsched.introspect/1"

(* The live-introspection document ("hsched.introspect/1").  Answered
   out-of-band — straight from the event loop, never via the admission
   queue — so it stays available during overload, which is exactly when
   it is needed.  Queue depth here is the instantaneous depth; the
   [service.queue.depth] gauge in [metrics] stays the high-water mark. *)
let introspect_body st ~recent =
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.String introspect_schema);
          ("uptime_s", Json.Float (Unix.gettimeofday () -. st.started));
          ("queue_depth", Json.Int (Queue.length st.queue));
          ("connections", Json.Int (List.length st.conns));
          ("draining", Json.Bool (st.draining <> None));
          ("cache_entries", Json.Int (Engine.cache_length st.engine));
          ( "online_sessions",
            Json.Obj
              [
                ("open", Json.Int (Sessions.length st.sessions));
                ("capacity", Json.Int (Sessions.capacity st.sessions));
                ("opened", Json.Int (Sessions.opened st.sessions));
              ] );
          ( "recorder",
            Json.Obj
              [
                ("capacity", Json.Int (Recorder.capacity st.recorder));
                ("recorded", Json.Int (Recorder.recorded st.recorder));
              ] );
          ("metrics", Metrics.to_json (Metrics.snapshot ()));
        ]
       @ if recent then [ ("recent", Recorder.to_json st.recorder) ] else []))

let handle_payload st c payload =
  match Json.parse payload with
  | Error msg -> protocol_err st c ~rid:(-1) ("bad JSON: " ^ msg)
  | Ok json -> (
      match Protocol.request_of_json json with
      | Error (rid, msg) -> protocol_err st c ~rid msg
      | Ok (rid, Protocol.Ping) -> send st c (Protocol.ok ~rid "pong")
      | Ok (rid, Protocol.Stats) -> send st c (Protocol.ok ~rid (stats_body ()))
      | Ok (rid, Protocol.Introspect { recent }) ->
          send st c (Protocol.ok ~rid (introspect_body st ~recent))
      | Ok (rid, Protocol.Shutdown) ->
          if st.draining = None then st.draining <- Some (c, rid)
      | Ok (rid, ((Protocol.Solve _ | Protocol.Online _) as req)) ->
          let job, trace_id =
            match req with
            | Protocol.Solve p -> (Solve p, p.Protocol.trace_id)
            | Protocol.Online p ->
                Metrics.incr c_online;
                (Online p, None)
            | _ -> assert false
          in
          if st.draining <> None then
            send st c (Protocol.err ~rid ~status:2 "server is draining")
          else if Queue.length st.queue >= st.cfg.max_queue then begin
            (* Admission control: shed, don't buffer.  The hint climbs
               linearly with the shed position so simultaneous rejects
               spread their retries instead of stampeding back. *)
            (match job with
            | Solve _ -> Metrics.incr c_requests
            | Online _ -> ());
            Metrics.incr c_shed;
            st.shed_streak <- st.shed_streak + 1;
            let retry_after_ms = st.cfg.retry_hint_ms * st.shed_streak in
            Recorder.record st.recorder ~digest:""
              ~status:(Protocol.status_of_error (E.Overloaded { retry_after_ms }))
              ?trace_id ~shed_reason:"queue_full" ~retry_after_ms ();
            send st c (Protocol.overloaded ~rid ~retry_after_ms)
          end
          else begin
            st.shed_streak <- 0;
            Queue.add
              { w_conn = c; w_rid = rid; w_job = job; w_enq = Unix.gettimeofday () }
              st.queue;
            Metrics.set g_queue
              (Stdlib.max (Metrics.gauge_value g_queue) (Queue.length st.queue))
          end)

let read_buf = Bytes.create 65536

let read_conn st c =
  let rec pull_frames () =
    if c.alive then
      match Frame.next c.dec with
      | Ok (Some payload) ->
          handle_payload st c payload;
          pull_frames ()
      | Ok None -> ()
      | Error e ->
          (* Frame sync is lost: answer once, typed, and hang up. *)
          protocol_err st c ~rid:(-1) (Frame.error_to_string e);
          close_conn st c
  in
  let rec read_loop () =
    if c.alive then
      match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
      | 0 ->
          (* EOF: a partial frame left behind is a typed fault too. *)
          (match Frame.at_eof c.dec with
          | Ok () -> ()
          | Error e -> protocol_err st c ~rid:(-1) (Frame.error_to_string e));
          close_conn st c
      | n ->
          c.last_read <- Unix.gettimeofday ();
          Frame.feed c.dec (Bytes.sub_string read_buf 0 n);
          pull_frames ();
          if n = Bytes.length read_buf then read_loop ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn st c
  in
  read_loop ()

(* A client sitting on a partial frame past the read deadline is cut
   off with a typed response; connections idle at a frame boundary cost
   nothing and may idle forever. *)
let cull_slow_readers st now =
  List.iter
    (fun c ->
      if
        c.alive
        && Frame.buffered c.dec > 0
        && now -. c.last_read >= st.cfg.io_timeout_s
      then begin
        protocol_err st c ~rid:(-1)
          (Printf.sprintf "read timed out with a partial frame (%d bytes buffered)"
             (Frame.buffered c.dec));
        close_conn st c
      end)
    (List.filter (fun c -> c.alive) st.conns)

(* ---- the admission queue --------------------------------------------- *)

(* Trace stitching (DESIGN.md §14).  When a batch contains at least one
   traced request the daemon makes sure its tracer is live for the
   batch's duration — on a wall clock, so client- and server-side
   timestamps share a timeline (same machine; the socket is Unix-domain)
   — and isolates the spans recorded during the batch by remembering the
   sink length beforehand.  A daemon that was not already tracing is
   returned to its untraced state afterwards, so tracing one request
   costs nothing once its response is out. *)
module Tracer = Hs_obs.Tracer

let wall_clock_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let drop_prefix n l =
  let rec go n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> go (n - 1) t in
  go n l

(* Wire form of the server-side spans for one traced response: every
   batch span, tagged with the request's trace id at encode time (the
   sink itself stays trace-agnostic — one batch can serve requests of
   several traces). *)
let spans_for ~trace_id batch_spans =
  List.map
    (fun (sp : Tracer.span) ->
      Tracer.span_to_json
        { sp with args = sp.args @ [ ("trace_id", Tracer.Str trace_id) ] })
    batch_spans

(* ---- online sessions -------------------------------------------------- *)

module Replay = Hs_online.Replay
module Trace_io = Hs_online.Trace_io

(* The migration-budget coefficient comes over the wire as text so the
   codec stays rational-agnostic; "inf" and absence both mean unlimited. *)
let beta_of_string = function
  | None | Some "inf" -> Ok None
  | Some s -> (
      match Hs_numeric.Q.of_string s with
      | q when Hs_numeric.Q.sign q >= 0 -> Ok (Some q)
      | _ -> Error (Printf.sprintf "migration budget %S is negative" s)
      | exception _ -> Error (Printf.sprintf "unparsable migration budget %S" s))

(* One online op, inline on the event loop (sessions are stateful and
   strictly ordered; the per-event work is one small re-solve).  Every
   op leaves a flight-recorder entry keyed by the session's trace
   digest, so a post-mortem can tell the streams apart. *)
let process_online st (w : work) p =
  let t0 = Unix.gettimeofday () in
  let respond ?(digest = "") (r : Protocol.response) =
    Recorder.record st.recorder ~digest ~status:r.Protocol.status
      ~queue_ms:(wall_ms w.w_enq) ~solve_ms:(wall_ms t0) ();
    send st w.w_conn r
  in
  let rid = w.w_rid in
  match p with
  | Protocol.Online_open { trace_text; beta; check } -> (
      match beta_of_string beta with
      | Error e -> respond (Protocol.err ~rid ~status:2 e)
      | Ok beta -> (
          match Trace_io.of_string trace_text with
          | Error e -> respond (Protocol.err ~rid ~status:2 ("bad trace: " ^ e))
          | Ok trace -> (
              let digest = Trace_io.digest trace in
              match
                Replay.Session.create ?beta ~check
                  (Hs_online.Trace.laminar trace)
              with
              | Error e -> respond ~digest (Protocol.err ~rid ~status:2 e)
              | Ok session -> (
                  match Sessions.open_ st.sessions ~digest session with
                  | None ->
                      (* The session table is the admission bound here:
                         same typed overloaded answer as a full queue. *)
                      Metrics.incr c_shed;
                      Recorder.record st.recorder ~digest
                        ~status:
                          (Protocol.status_of_error
                             (E.Overloaded
                                { retry_after_ms = st.cfg.retry_hint_ms }))
                        ~shed_reason:"sessions_full"
                        ~retry_after_ms:st.cfg.retry_hint_ms ();
                      send st w.w_conn
                        (Protocol.overloaded ~rid
                           ~retry_after_ms:st.cfg.retry_hint_ms)
                  | Some sid -> (
                      (* Events already in the document replay at open;
                         they passed Trace.make, so a failure here is an
                         internal fault, not a client error. *)
                      let entry = Option.get (Sessions.find st.sessions sid) in
                      let rec replay = function
                        | [] -> Ok ()
                        | ev :: rest -> (
                            match Replay.Session.step session ev with
                            | Error e -> Error e
                            | Ok _ ->
                                entry.Sessions.events <-
                                  entry.Sessions.events + 1;
                                replay rest)
                      in
                      match replay (Hs_online.Trace.events trace) with
                      | Error e ->
                          ignore (Sessions.close st.sessions sid);
                          respond ~digest
                            (Protocol.err ~rid ~status:1
                               ("replay failed at open: " ^ e))
                      | Ok () ->
                          respond ~digest
                            (Protocol.ok ~rid
                               (Json.to_string
                                  (Json.Obj
                                     [
                                       ( "schema",
                                         Json.String "hsched.online.open/1" );
                                       ("session", Json.Int sid);
                                       ("digest", Json.String digest);
                                       ( "events",
                                         Json.Int entry.Sessions.events );
                                     ]))))))))
  | Protocol.Online_event { session = sid; event_text } -> (
      match Sessions.find st.sessions sid with
      | None ->
          respond
            (Protocol.err ~rid ~status:2
               (Printf.sprintf "unknown online session %d" sid))
      | Some entry -> (
          match Trace_io.event_of_line event_text with
          | Error e ->
              respond ~digest:entry.Sessions.digest
                (Protocol.err ~rid ~status:2 ("bad event: " ^ e))
          | Ok ev -> (
              match Replay.Session.step entry.Sessions.session ev with
              | Error e ->
                  (* Dynamic validation failed; the session survives. *)
                  respond ~digest:entry.Sessions.digest
                    (Protocol.err ~rid ~status:2 ("rejected event: " ^ e))
              | Ok step ->
                  entry.Sessions.events <- entry.Sessions.events + 1;
                  let failed =
                    match step.Replay.verdict with
                    | Some v -> not (Hs_check.Verdict.ok v)
                    | None -> false
                  in
                  respond ~digest:entry.Sessions.digest
                    {
                      Protocol.rid;
                      status = (if failed then 1 else 0);
                      cached = false;
                      body = Json.to_string (Replay.step_to_json step);
                      error =
                        (if failed then "online step failed certification"
                         else "");
                      retry_after_ms = 0;
                      spans = [];
                    })))
  | Protocol.Online_close { session = sid } -> (
      match Sessions.close st.sessions sid with
      | None ->
          respond
            (Protocol.err ~rid ~status:2
               (Printf.sprintf "unknown online session %d" sid))
      | Some entry ->
          respond ~digest:entry.Sessions.digest
            (Protocol.ok ~rid
               (Json.to_string
                  (Replay.summary_to_json
                     (Replay.Session.summary entry.Sessions.session)))))

(* One batch: expire overdue deadlines at dispatch, hand the solves to
   the engine (which classifies against the cache, coalesces duplicates
   and solves the distinct misses on the pool) with online session ops
   interleaved inline at their admitted positions, then respond in
   admission order. *)
let process_batch st =
  let now = Unix.gettimeofday () in
  let taken = ref 0 and batch = ref [] and expired = ref [] in
  while Queue.length st.queue > 0 && !taken < st.cfg.max_batch do
    incr taken;
    let w = Queue.pop st.queue in
    let overdue =
      (* Online ops carry no deadline: a session step is cheap and
         skipping one would corrupt the stream. *)
      match w.w_job with
      | Solve { Protocol.deadline_ms = Some d; _ } ->
          (now -. w.w_enq) *. 1000.0 >= float_of_int d
      | Solve _ | Online _ -> false
    in
    if overdue then expired := w :: !expired else batch := w :: !batch
  done;
  List.iter
    (fun w ->
      let p = match w.w_job with Solve p -> p | Online _ -> assert false in
      Metrics.incr c_requests;
      Metrics.incr c_deadline_miss;
      let queue_ms = wall_ms w.w_enq in
      Metrics.observe h_queue_ms queue_ms;
      let deadline_ms = Option.value ~default:0 p.Protocol.deadline_ms in
      let e =
        E.Deadline_exceeded { deadline_ms; detail = "expired in the admission queue" }
      in
      Recorder.record st.recorder ~digest:"" ~status:(Protocol.status_of_error e)
        ~queue_ms ?trace_id:p.Protocol.trace_id ~shed_reason:"queue_deadline" ();
      send st w.w_conn
        (Protocol.err ~rid:w.w_rid ~status:(Protocol.status_of_error e)
           (E.to_string e)))
    (List.rev !expired);
  (* Walk the admitted work in order: runs of solves form engine
     batches, online ops run inline between them, so every response
     still leaves in admission order. *)
  let flush_solves batch = if batch <> [] then begin
    Metrics.incr c_batches;
    Metrics.observe h_batch (List.length batch);
    let sp w = match w.w_job with Solve p -> p | Online _ -> assert false in
    let traced =
      List.exists (fun w -> (sp w).Protocol.trace_id <> None) batch
    in
    let was_tracing = Tracer.enabled () in
    if traced && not was_tracing then begin
      Tracer.set_clock wall_clock_ns;
      Tracer.enable ()
    end;
    let spans_before = if traced then List.length (Tracer.spans ()) else 0 in
    (* The queue wait is over by the time it is measurable: measure it
       once at dispatch, record it as an after-the-fact span for traced
       requests, and keep it for the flight-recorder entry. *)
    let queue_waits =
      List.map
        (fun w ->
          let queue_ms = wall_ms w.w_enq in
          Metrics.observe h_queue_ms queue_ms;
          if (sp w).Protocol.trace_id <> None then
            Tracer.record_span ~cat:"service"
              ~args:[ ("rid", Tracer.Int w.w_rid) ]
              ~start_ns:(Int64.of_float (w.w_enq *. 1e9))
              ~dur_ns:(Int64.of_float (float_of_int queue_ms *. 1e6))
              "service.queue.wait";
          queue_ms)
        batch
    in
    let answers =
      Hs_obs.Tracer.with_span ~cat:"service"
        ~args:[ ("batch.size", Hs_obs.Tracer.Int (List.length batch)) ]
        "service.batch"
        (fun () ->
          Engine.solve_batch st.engine (List.map sp batch))
    in
    let batch_spans =
      if traced then drop_prefix spans_before (Tracer.spans ()) else []
    in
    List.iter2
      (fun (w, queue_ms) (a : Engine.answer) ->
        Recorder.record st.recorder ~digest:a.Engine.key ~status:a.Engine.status
          ~cached:a.Engine.cached ~queue_ms ~solve_ms:a.Engine.solve_ms
          ?trace_id:(sp w).Protocol.trace_id ();
        let spans =
          match (sp w).Protocol.trace_id with
          | Some t -> spans_for ~trace_id:t batch_spans
          | None -> []
        in
        send st w.w_conn
          {
            Protocol.rid = w.w_rid;
            status = a.Engine.status;
            cached = a.Engine.cached;
            body = a.Engine.body;
            error = a.Engine.error;
            retry_after_ms = 0;
            spans;
          })
      (List.combine batch queue_waits)
      answers;
    if traced && not was_tracing then begin
      (* Forget the batch's spans along with the borrowed tracer: an
         untraced daemon must not accumulate span memory across its
         lifetime. *)
      Tracer.disable ();
      Tracer.clear ()
    end
  end
  in
  let rec walk pending = function
    | [] -> flush_solves (List.rev pending)
    | w :: rest -> (
        match w.w_job with
        | Solve _ -> walk (w :: pending) rest
        | Online p ->
            flush_solves (List.rev pending);
            process_online st w p;
            walk [] rest)
  in
  walk [] (List.rev !batch)

let drain_queue st =
  while not (Queue.is_empty st.queue) do
    process_batch st
  done

(* ---- socket setup ---------------------------------------------------- *)

(* A leftover socket file from a crashed daemon must not block restarts,
   but a live daemon must: probe with a connect. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then Error (Printf.sprintf "%s: a daemon is already serving" path)
    else (
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Ok ())
  end
  else Ok ()

let listen_on path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    Unix.set_nonblock fd
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))

(* ---- main loop ------------------------------------------------------- *)

let accept_all st =
  let rec go () =
    match Unix.accept st.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        st.conns <-
          st.conns
          @ [ { fd; dec = Frame.create (); alive = true; last_read = Unix.gettimeofday () } ];
        go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let restore_snapshot cfg engine =
  match cfg.snapshot_path with
  | Some path when Sys.file_exists path -> (
      match Engine.load_snapshot engine path with
      | Ok (loaded, rejected) ->
          cfg.log
            (Printf.sprintf "restored %d cache entries from %s (%d rejected)" loaded
               path rejected)
      | Error e -> cfg.log (Printf.sprintf "snapshot not restored: %s" e))
  | _ -> ()

let persist_snapshot st =
  match st.cfg.snapshot_path with
  | None -> ()
  | Some path -> (
      match Engine.save_snapshot st.engine path with
      | Ok n -> st.cfg.log (Printf.sprintf "saved %d cache entries to %s" n path)
      | Error e -> st.cfg.log (Printf.sprintf "snapshot not saved: %s" e))

let run cfg =
  if cfg.jobs < 1 then invalid_arg "Daemon.run: jobs must be >= 1";
  if cfg.max_batch < 1 then invalid_arg "Daemon.run: max_batch must be >= 1";
  if cfg.max_queue < 0 then invalid_arg "Daemon.run: max_queue must be >= 0";
  if cfg.retry_hint_ms < 1 then invalid_arg "Daemon.run: retry_hint_ms must be >= 1";
  if cfg.io_timeout_s <= 0.0 then invalid_arg "Daemon.run: io_timeout_s must be > 0";
  if cfg.recorder_capacity < 1 then
    invalid_arg "Daemon.run: recorder_capacity must be >= 1";
  if cfg.max_sessions < 1 then invalid_arg "Daemon.run: max_sessions must be >= 1";
  (ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) : unit);
  let engine =
    Engine.create ~verify:cfg.verify ~deadline_units_per_ms:cfg.deadline_units_per_ms
      ~jobs:cfg.jobs ~cache_capacity:cfg.cache_capacity ~default_budget:cfg.default_budget ()
  in
  (* Claim the path, restore, and only then bind: the socket file is the
     readiness signal clients wait on, so it must not appear before the
     cache is restored. *)
  let listening =
    Result.bind (claim_socket_path cfg.socket_path) (fun () ->
        restore_snapshot cfg engine;
        listen_on cfg.socket_path)
  in
  match listening with
  | Error _ as e -> e
  | Ok listen_fd ->
      let st =
        {
          cfg;
          listen_fd;
          started = Unix.gettimeofday ();
          conns = [];
          queue = Queue.create ();
          shed_streak = 0;
          engine;
          recorder = Recorder.create ~capacity:cfg.recorder_capacity;
          sessions = Sessions.create ~capacity:cfg.max_sessions;
          draining = None;
        }
      in
      cfg.log
        (Printf.sprintf "listening on %s (jobs=%d, cache=%d, batch=%d, queue=%d)"
           cfg.socket_path cfg.jobs cfg.cache_capacity cfg.max_batch cfg.max_queue);
      let rec loop () =
        match st.draining with
        | Some (requester, rid) ->
            let in_flight = Queue.length st.queue in
            drain_queue st;
            cfg.log (Printf.sprintf "drained %d in-flight request(s)" in_flight);
            (* The last flight before landing: dump the recorder so a
               post-mortem has the recent request history even when
               nobody thought to ask for it while the daemon was up. *)
            if Recorder.recorded st.recorder > 0 then begin
              cfg.log
                (Printf.sprintf "flight recorder (last %d of %d outcome(s)):"
                   (Recorder.length st.recorder)
                   (Recorder.recorded st.recorder));
              List.iter
                (fun e -> cfg.log ("  " ^ Recorder.entry_to_line e))
                (Recorder.entries st.recorder)
            end;
            persist_snapshot st;
            if requester.alive then send st requester (Protocol.ok ~rid "bye");
            cfg.log "bye"
        | None -> (
            let fds = st.listen_fd :: List.map (fun c -> c.fd) st.conns in
            (* Block indefinitely only when no connection holds a partial
               frame; otherwise wake up in time to enforce the read
               deadline. *)
            let timeout =
              if List.exists (fun c -> Frame.buffered c.dec > 0) st.conns then
                cfg.io_timeout_s
              else -1.0
            in
            match Unix.select fds [] [] timeout with
            | exception Unix.Unix_error (EINTR, _, _) -> loop ()
            | ready, _, _ ->
                if List.mem st.listen_fd ready then accept_all st;
                List.iter
                  (fun c -> if List.mem c.fd ready then read_conn st c)
                  (* snapshot: read_conn mutates st.conns on close *)
                  (List.filter (fun c -> c.alive) st.conns);
                cull_slow_readers st (Unix.gettimeofday ());
                (* Run everything admitted this round; batches bound each
                   pool submission, and later batches see earlier
                   batches' cache entries. *)
                while not (Queue.is_empty st.queue) && st.draining = None do
                  process_batch st
                done;
                loop ())
      in
      loop ();
      List.iter (fun c -> close_conn st c) st.conns;
      (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
      Ok ()

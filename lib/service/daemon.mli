(** The persistent solver daemon.

    A single-threaded [select] event loop owns the Unix-domain listen
    socket, every connection's incremental {!Frame} decoder, the LRU
    {!Cache} and the admission queue; solver work is the only thing that
    leaves the loop, batched onto an {!Hs_exec} domain pool.  The loop
    per iteration:

    + accept pending connections, read every readable one, decode
      complete frames into requests ([ping]/[stats]/[introspect]
      answered inline — introspection is out-of-band by construction, so
      it stays available during overload —, [solve] and [online]
      admitted to the queue, wire-level faults answered with a typed
      status-2 response — the daemon never crashes or hangs on malformed
      input);
    + cut off clients that sat on a partial frame past [io_timeout_s]
      (typed status-2 response, then close) — an idle connection at a
      frame boundary costs nothing and may idle forever;
    + drain the admission queue in batches of at most [max_batch]:
      requests whose deadline expired while queued are answered with the
      typed status-6 response at dispatch; each survivor is parsed,
      keyed ({!Solver.cache_key}) and either served from the cache,
      coalesced onto an identical request already in the batch, or
      solved on the pool under its per-request budget — the tighter of
      the requested budget and the deadline-derived cap
      ({!Hs_core.Budget.of_deadline_ms}); responses go out in admission
      order.

    {b Online sessions} (DESIGN.md §15): the [online] verb streams
    events into a persistent server-side {!Hs_online.Replay.Session},
    held in a bounded {!Sessions} table ([max_sessions]; opening beyond
    the bound is answered with the same typed status-5 overloaded
    response as a full queue).  Online ops share the admission queue
    with solves — they are shed under the same [max_queue] bound — but
    run inline on the event loop at their admitted positions, strictly
    in admission order (sessions are stateful), with runs of solves
    batched onto the pool between them.  Every op leaves a
    flight-recorder entry keyed by the session's trace digest.  Online
    ops carry no deadline.  Sessions die with the daemon — they are
    scheduler state, not cache, and are deliberately not snapshotted.

    {b Admission control} (DESIGN.md §13): the queue is bounded by
    [max_queue].  A solve arriving at a full queue is shed immediately
    with the typed status-5 response; its [retry_after_ms] hint is
    deterministic — [retry_hint_ms] times the request's position in the
    current shed streak — so a burst of rejected clients spreads its
    retries instead of stampeding back.  [max_queue = 0] sheds every
    solve, which the tests use as a deterministic always-overloaded
    mode.

    {b Crash recovery}: with [snapshot_path] set, the daemon restores
    the cache from the snapshot on startup (each entry re-proves its
    fingerprint; tampered entries are rejected and counted) and writes
    the cache back after draining on shutdown ({!Engine.save_snapshot}).
    The restore runs before the socket is bound, so a client that waits
    for the socket file to appear finds the cache already restored.

    {b Observability} (DESIGN.md §14): every solve outcome — completed,
    shed, or queue-expired — lands in a {!Recorder} ring of
    [recorder_capacity] entries, served by [introspect {recent = true}]
    and dumped to [log] on drain; queue-wait and response-write times
    feed the [service.phase.queue_ms]/[service.phase.write_ms]
    histograms.  A batch containing traced requests runs with the tracer
    live on a wall clock: each traced request gets an after-the-fact
    [service.queue.wait] span, and the whole batch's spans ride back on
    each traced response ([spans], tagged with that request's trace id)
    for client-side stitching into one merged timeline.  A daemon that
    was not already tracing returns to its untraced state after the
    batch.

    Shutdown ([hsched shutdown] or a pipelined [shutdown] frame) is
    graceful: the daemon stops admitting, finishes every queued request,
    flushes their responses, persists the snapshot, acknowledges the
    shutdown, removes the socket and returns. *)

type config = {
  socket_path : string;
  jobs : int;  (** worker domains per batch (resolved, >= 1) *)
  cache_capacity : int;  (** LRU entries, >= 1 *)
  default_budget : int option;
      (** budget applied to requests that carry none; [None] = the
          unbudgeted certified pipeline, exactly like plain
          [hsched solve] *)
  max_batch : int;  (** max requests per pool submission *)
  max_queue : int;
      (** admission bound: solves beyond this many queued are shed with
          the typed status-5 response; [0] sheds everything *)
  retry_hint_ms : int;
      (** slope of the deterministic [retry_after_ms] ladder *)
  deadline_units_per_ms : int;
      (** deadline-to-budget exchange rate
          ({!Solver.default_deadline_units_per_ms}) *)
  io_timeout_s : float;
      (** per-connection read deadline on partial frames, and the write
          deadline on responses *)
  snapshot_path : string option;
      (** cache snapshot file: restored (fingerprint-gated) on startup,
          written after drain on shutdown *)
  verify : bool;
      (** certify every answer before responding: fresh solves run the
          independent {!Hs_check.Certify} re-validation, cache hits are
          fingerprint-checked ({!Engine}); violations surface as typed
          status-1 verification errors *)
  recorder_capacity : int;
      (** flight-recorder ring size: the last this-many request outcomes
          are kept for [introspect]/post-mortem, >= 1 *)
  max_sessions : int;
      (** bound on concurrently open online sessions, >= 1; opens beyond
          it are answered with the typed status-5 overloaded response *)
  log : string -> unit;  (** server-side log sink *)
}

val default_config : socket_path:string -> config
(** jobs 1, cache 128, no default budget, batches of 64, queue bound
    256, retry hint 50 ms, deadline rate 100 units/ms, 10 s IO timeout,
    no snapshot, no verification, a 256-entry flight recorder, 16
    online sessions, silent log. *)

val run : config -> (unit, string) result
(** Serve until a shutdown request arrives.  [Error] covers startup
    failures (socket in use, unbindable path) and nothing else: once
    listening, every fault is handled inside the loop.  Raises
    [Invalid_argument] on out-of-range config values ([jobs],
    [max_batch], [retry_hint_ms], [max_sessions] < 1; [max_queue] < 0;
    [io_timeout_s] <= 0). *)

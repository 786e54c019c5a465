(* The service stack (DESIGN.md section 11): frame codec, protocol
   codec, LRU result cache, and a live daemon under wire-level fault
   injection — every corrupted byte stream must come back as a typed
   protocol error on the wire; the daemon never crashes and never
   hangs. *)

module Frame = Hs_service.Frame
module Protocol = Hs_service.Protocol
module Cache = Hs_service.Cache
module Client = Hs_service.Client
module Daemon = Hs_service.Daemon
module Solver = Hs_service.Solver
module Json = Hs_obs.Json

let sample_text =
  "machines 4\n\
   sets 6\n\
   0 1 2 3\n\
   0 1\n\
   2 3\n\
   0\n\
   1\n\
   2\n\
   jobs 2\n\
   9 7 7 4 5 6\n\
   6 6 6 3 3 5\n"

(* ---- frame codec ------------------------------------------------------ *)

let decode_all feed_sizes encoded =
  let dec = Frame.create () in
  let pos = ref 0 and sizes = ref feed_sizes and out = ref [] in
  let rec drain () =
    match Frame.next dec with
    | Ok (Some p) ->
        out := p :: !out;
        drain ()
    | Ok None -> ()
    | Error e -> Alcotest.failf "decode error: %s" (Frame.error_to_string e)
  in
  while !pos < String.length encoded do
    let k =
      match !sizes with
      | [] -> String.length encoded - !pos
      | k :: rest ->
          sizes := rest;
          Stdlib.min k (String.length encoded - !pos)
    in
    Frame.feed dec (String.sub encoded !pos k);
    pos := !pos + k;
    drain ()
  done;
  (match Frame.at_eof dec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "partial frame at EOF: %s" (Frame.error_to_string e));
  List.rev !out

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; "{\"a\":1}"; String.make 100_000 'q'; sample_text ] in
  let encoded = String.concat "" (List.map Frame.encode payloads) in
  (* whole-stream, byte-at-a-time, and ragged chunk feeds all agree *)
  List.iter
    (fun sizes ->
      Alcotest.(check (list string)) "payloads survive framing" payloads
        (decode_all sizes encoded))
    [ []; List.init (String.length encoded) (fun _ -> 1); [ 3; 7; 1; 11; 50_000 ] ]

let test_frame_errors () =
  let feed_and_next s =
    let dec = Frame.create () in
    Frame.feed dec s;
    Frame.next dec
  in
  (match feed_and_next "zzzzzzzz\n" with
  | Error (Frame.Bad_header _) -> ()
  | _ -> Alcotest.fail "non-hex header must be Bad_header");
  (match feed_and_next "00000002X{}" with
  | Error (Frame.Bad_header _) -> ()
  | _ -> Alcotest.fail "missing newline must be Bad_header");
  (match feed_and_next "ffffffff\n" with
  | Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "16 MiB cap must be Oversized");
  let dec = Frame.create () in
  Frame.feed dec "0000";
  (match Frame.at_eof dec with
  | Error (Frame.Truncated _) -> ()
  | _ -> Alcotest.fail "EOF inside the header must be Truncated");
  let dec = Frame.create () in
  Frame.feed dec "00000010\n{\"hsched.rp";
  (match Frame.next dec with
  | Ok None -> ()
  | _ -> Alcotest.fail "incomplete payload is not a frame yet");
  match Frame.at_eof dec with
  | Error (Frame.Truncated _) -> ()
  | _ -> Alcotest.fail "EOF inside the payload must be Truncated"

(* ---- protocol codec --------------------------------------------------- *)

let test_protocol_roundtrip () =
  let reqs =
    [
      Protocol.Solve { instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None };
      Protocol.Solve { instance_text = "machines 1\n"; budget = Some 7; deadline_ms = None; trace_id = None };
      Protocol.Solve { instance_text = "machines 1\n"; budget = Some 7; deadline_ms = Some 250; trace_id = None };
      Protocol.Solve { instance_text = ""; budget = None; deadline_ms = Some 0; trace_id = None };
      Protocol.Solve
        {
          instance_text = sample_text;
          budget = Some 9;
          deadline_ms = Some 50;
          trace_id = Some "0123456789abcdef";
        };
      Protocol.Introspect { recent = false };
      Protocol.Introspect { recent = true };
      Protocol.Stats;
      Protocol.Ping;
      Protocol.Shutdown;
    ]
  in
  List.iteri
    (fun id req ->
      let wire = Json.to_string (Protocol.request_to_json ~id req) in
      match Json.parse wire with
      | Error e -> Alcotest.failf "request JSON unparsable: %s" e
      | Ok json -> (
          match Protocol.request_of_json json with
          | Error (_, e) -> Alcotest.failf "request rejected: %s" e
          | Ok (id', req') ->
              Alcotest.(check int) "id" id id';
              Alcotest.(check bool) "request" true (req = req')))
    reqs;
  List.iter
    (fun (r : Protocol.response) ->
      let wire = Json.to_string (Protocol.response_to_json r) in
      match Json.parse wire with
      | Error e -> Alcotest.failf "response JSON unparsable: %s" e
      | Ok json -> (
          match Protocol.response_of_json json with
          | Error e -> Alcotest.failf "response rejected: %s" e
          | Ok r' -> Alcotest.(check bool) "response" true (r = r')))
    [
      Protocol.ok ~rid:3 "body\nwith \"quotes\"";
      Protocol.ok ~rid:0 ~cached:true "";
      Protocol.err ~rid:(-1) ~status:2 "protocol error: bad JSON";
      Protocol.err ~rid:9 ~status:4 "budget exhausted";
      Protocol.overloaded ~rid:4 ~retry_after_ms:150;
      Protocol.err ~rid:5 ~status:6 "deadline exceeded [10 ms]: expired";
      Protocol.ok ~rid:7
        ~spans:
          [
            Json.Obj
              [
                ("name", Json.String "service.solve");
                ("start_ns", Json.Int 10);
                ("dur_ns", Json.Int 20);
              ];
          ]
        "traced body";
      Protocol.err ~rid:8 ~status:4
        ~spans:[ Json.Obj [ ("name", Json.String "service.batch") ] ]
        "budget exhausted";
    ]

let test_protocol_rejects () =
  List.iter
    (fun wire ->
      match Json.parse wire with
      | Error _ -> ()
      | Ok json -> (
          match Protocol.request_of_json json with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "accepted bad request: %s" wire))
    [
      "{}";
      "[1]";
      "\"solve\"";
      "{\"hsched.rpc\":2,\"id\":0,\"verb\":\"ping\"}";
      "{\"hsched.rpc\":1,\"id\":0,\"verb\":\"frobnicate\"}";
      "{\"hsched.rpc\":1,\"id\":0,\"verb\":\"solve\"}";
      "{\"hsched.rpc\":1,\"id\":0,\"verb\":\"solve\",\"instance\":7}";
      "{\"hsched.rpc\":1,\"verb\":\"ping\"}";
    ]

(* ---- LRU cache -------------------------------------------------------- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Alcotest.(check (option string)) "miss on empty" None (Cache.find c "a");
  Cache.add c "a" "A";
  Cache.add c "b" "B";
  Alcotest.(check (option string)) "hit a" (Some "A") (Cache.find c "a");
  (* b is now least-recent; inserting c evicts it *)
  Cache.add c "c" "C";
  Alcotest.(check (option string)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option string)) "a kept" (Some "A") (Cache.find c "a");
  Alcotest.(check (option string)) "c kept" (Some "C") (Cache.find c "c");
  (* re-adding an existing key refreshes, never duplicates *)
  Cache.add c "a" "A2";
  Cache.add c "d" "D";
  Alcotest.(check (option string)) "c evicted after refresh" None (Cache.find c "c");
  Alcotest.(check (option string)) "a updated" (Some "A2") (Cache.find c "a");
  Alcotest.(check (option string)) "d kept" (Some "D") (Cache.find c "d")

(* ---- live daemon ------------------------------------------------------ *)

let socket_counter = ref 0

let with_daemon ?(jobs = 1) ?(tweak = fun (c : Daemon.config) -> c) f =
  incr socket_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hsvc-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  let cfg = tweak { (Daemon.default_config ~socket_path:path) with jobs } in
  let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
  (* Wait out the bind race: the socket file appears at bind time, and
     Client.connect retries through the bind-to-listen window. *)
  let rec wait k =
    if not (Sys.file_exists path) then
      if k = 0 then Alcotest.fail "daemon socket never appeared"
      else begin
        ignore (Unix.select [] [] [] 0.05);
        wait (k - 1)
      end
  in
  wait 100;
  let finish () =
    (match Client.connect path with
    | Error _ -> ()
    | Ok c ->
        ignore (Client.call ~timeout_s:10.0 c Protocol.Shutdown);
        Client.close c);
    match Domain.join daemon with
    | Ok () -> ()
    | Error e -> Alcotest.failf "daemon failed: %s" e
  in
  Fun.protect ~finally:finish (fun () -> f path)

(* Write raw bytes, half-close, then read every response frame until the
   daemon hangs up.  The deadline doubles as the never-hangs assertion. *)
let raw_roundtrip path bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let n = String.length bytes in
  let pos = ref 0 in
  (try
     while !pos < n do
       pos := !pos + Unix.write_substring fd bytes !pos (n - !pos)
     done
   with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
     (* The daemon may reject mid-stream (e.g. oversized header) and
        close before we finish writing; that is a valid typed outcome. *)
     ());
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND
   with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let dec = Frame.create () in
  let buf = Bytes.create 65536 in
  let out = ref [] in
  let rec drain () =
    match Frame.next dec with
    | Ok (Some payload) ->
        (match Json.parse payload with
        | Error e -> Alcotest.failf "daemon sent non-JSON: %s" e
        | Ok json -> (
            match Protocol.response_of_json json with
            | Error e -> Alcotest.failf "daemon sent a non-response: %s" e
            | Ok r -> out := r :: !out));
        drain ()
    | Ok None -> ()
    | Error e -> Alcotest.failf "daemon sent a bad frame: %s" (Frame.error_to_string e)
  in
  let rec read_loop () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then Alcotest.fail "daemon hung (no EOF within deadline)";
    match Unix.select [ fd ] [] [] remaining with
    | [], _, _ -> Alcotest.fail "daemon hung (no EOF within deadline)"
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> drain ()
        | k ->
            Frame.feed dec (Bytes.sub_string buf 0 k);
            drain ();
            read_loop ()
        | exception Unix.Unix_error (EINTR, _, _) -> read_loop ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> drain ())
    | exception Unix.Unix_error (EINTR, _, _) -> read_loop ()
  in
  read_loop ();
  List.rev !out

let assert_alive path =
  match Client.connect path with
  | Error e -> Alcotest.failf "daemon unreachable after faults: %s" e
  | Ok c -> (
      let r = Client.call ~timeout_s:10.0 c Protocol.Ping in
      Client.close c;
      match r with
      | Ok { Protocol.status = 0; body = "pong"; _ } -> ()
      | Ok r -> Alcotest.failf "ping answered %d %S" r.Protocol.status r.Protocol.body
      | Error e -> Alcotest.failf "ping failed: %s" e)

let test_daemon_fault_corpus () =
  with_daemon @@ fun path ->
  List.iter
    (fun bytes ->
      let resps = raw_roundtrip path bytes in
      List.iter
        (fun (r : Protocol.response) ->
          if r.status = 0 then
            Alcotest.failf "corrupted frame %S answered status 0" bytes;
          Alcotest.(check bool)
            (Printf.sprintf "typed diagnostic for %S" bytes)
            true (r.error <> ""))
        resps;
      assert_alive path)
    Hs_workloads.Mutators.malformed_frames

let test_daemon_fault_fuzz () =
  with_daemon @@ fun path ->
  let rng = Hs_workloads.Rng.create 7 in
  let base =
    [|
      Frame.encode
        (Json.to_string
           (Protocol.request_to_json ~id:0
              (Protocol.Solve { instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None })));
      Frame.encode
        (Json.to_string (Protocol.request_to_json ~id:1 Protocol.Ping));
    |]
  in
  for _ = 1 to 60 do
    let bytes =
      Hs_workloads.Mutators.corrupt_frame rng (Hs_workloads.Rng.choose rng base)
    in
    let resps = raw_roundtrip path bytes in
    (* A mutation can leave the frame intact (payload byte flips may even
       leave valid JSON): then a real answer is fine.  What is never fine
       is a crash, a hang, or an untyped failure — all caught above. *)
    ignore resps
  done;
  assert_alive path

let test_daemon_solve_and_cache () =
  with_daemon @@ fun path ->
  let offline =
    match
      Solver.prepare ~default_budget:None
        { Protocol.instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None }
    with
    | Error e -> Alcotest.failf "prepare failed: %s" (Hs_core.Hs_error.to_string e)
    | Ok prep -> (
        match Solver.execute prep with
        | Ok body -> body
        | Error e -> Alcotest.failf "execute failed: %s" (Hs_core.Hs_error.to_string e))
  in
  match Client.connect path with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let solve () =
        match
          Client.call ~timeout_s:30.0 c
            (Protocol.Solve { instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None })
        with
        | Error e -> Alcotest.failf "solve call failed: %s" e
        | Ok r -> r
      in
      let r1 = solve () in
      Alcotest.(check int) "status" 0 r1.Protocol.status;
      Alcotest.(check bool) "first solve not cached" false r1.Protocol.cached;
      Alcotest.(check string) "daemon body = offline body" offline r1.Protocol.body;
      let r2 = solve () in
      Alcotest.(check bool) "second solve cached" true r2.Protocol.cached;
      Alcotest.(check string) "cached body identical" r1.Protocol.body r2.Protocol.body;
      (* semantically identical text, different bytes: same cache entry *)
      let scrambled = "# comment\nmachines   4\n" ^ String.concat "\n" (List.tl (String.split_on_char '\n' sample_text)) in
      (match
         Client.call ~timeout_s:30.0 c
           (Protocol.Solve { instance_text = scrambled; budget = None; deadline_ms = None; trace_id = None })
       with
      | Error e -> Alcotest.failf "scrambled solve failed: %s" e
      | Ok r3 ->
          Alcotest.(check bool) "canonical key: scrambled text hits" true
            r3.Protocol.cached;
          Alcotest.(check string) "same body" r1.Protocol.body r3.Protocol.body);
      (* a different budget is a different cache key *)
      (match
         Client.call ~timeout_s:30.0 c
           (Protocol.Solve { instance_text = sample_text; budget = Some 100; deadline_ms = None; trace_id = None })
       with
      | Error e -> Alcotest.failf "budgeted solve failed: %s" e
      | Ok r4 -> Alcotest.(check bool) "budget keys apart" false r4.Protocol.cached);
      (* an unparsable instance is a typed status-2 error, not a crash *)
      (match
         Client.call ~timeout_s:30.0 c
           (Protocol.Solve { instance_text = "machines x\n"; budget = None; deadline_ms = None; trace_id = None })
       with
      | Error e -> Alcotest.failf "bad-instance call failed: %s" e
      | Ok r5 ->
          Alcotest.(check int) "unusable input is status 2" 2 r5.Protocol.status;
          Alcotest.(check bool) "typed diagnostic" true (r5.Protocol.error <> ""))

(* ---- verification engine ---------------------------------------------- *)

module Engine = Hs_service.Engine

let engine_solve_one engine params =
  match Engine.solve_batch engine [ params ] with
  | [ a ] -> a
  | l -> Alcotest.failf "expected 1 answer, got %d" (List.length l)

let test_engine_cache_poisoning () =
  (* The daemon's batch pipeline, driven directly (the live daemon's
     cache sits in another domain and is deliberately unreachable): a
     cached entry mutated behind the engine's back must be detected by a
     verifying engine and answered with the typed verification error,
     never replayed. *)
  let params = { Protocol.instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None } in
  let key =
    match Solver.prepare ~default_budget:None params with
    | Ok prep -> prep.Solver.key
    | Error e -> Alcotest.failf "prepare failed: %s" (Hs_core.Hs_error.to_string e)
  in
  let verifying =
    Engine.create ~verify:true ~jobs:1 ~cache_capacity:8 ~default_budget:None ()
  in
  let fresh = engine_solve_one verifying params in
  Alcotest.(check int) "verified fresh solve succeeds" 0 fresh.Engine.status;
  Alcotest.(check bool) "fresh solve not cached" false fresh.Engine.cached;
  (* Verification must not change the rendered body. *)
  let plain =
    Engine.create ~jobs:1 ~cache_capacity:8 ~default_budget:None ()
  in
  let unverified = engine_solve_one plain params in
  Alcotest.(check string) "verified body byte-identical" unverified.Engine.body
    fresh.Engine.body;
  let hit = engine_solve_one verifying params in
  Alcotest.(check bool) "intact entry replays" true hit.Engine.cached;
  Alcotest.(check string) "replayed body identical" fresh.Engine.body hit.Engine.body;
  (* Poison the cached body (test hook keeps the fingerprint). *)
  Alcotest.(check bool) "poison hook finds the entry" true
    (Engine.poison_cache verifying ~key);
  let tampered = engine_solve_one verifying params in
  Alcotest.(check int) "tampered hit is a typed error" 1 tampered.Engine.status;
  Alcotest.(check bool) "verification error names cache.integrity" true
    (let e = tampered.Engine.error in
     let needle = "verification failed [cache.integrity]" in
     String.length e >= String.length needle
     && String.sub e 0 (String.length needle) = needle);
  Alcotest.(check string) "tampered body never replayed" "" tampered.Engine.body;
  (* A non-verifying engine replays the poison blindly — the detection
     really is the verification layer, not the cache. *)
  Alcotest.(check bool) "poison the plain engine" true
    (Engine.poison_cache plain ~key);
  let blind = engine_solve_one plain params in
  Alcotest.(check int) "unverified engine replays poison" 0 blind.Engine.status;
  Alcotest.(check bool) "poisoned body differs from the truth" true
    (blind.Engine.body <> unverified.Engine.body)

let test_engine_verified_batch () =
  (* Coalescing and admission order survive verification; a batch mixing
     duplicates, a parse error and a miss answers in order. *)
  let engine =
    Engine.create ~verify:true ~jobs:2 ~cache_capacity:8 ~default_budget:None ()
  in
  let good = { Protocol.instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None } in
  let bad = { Protocol.instance_text = "machines x\n"; budget = None; deadline_ms = None; trace_id = None } in
  match Engine.solve_batch engine [ good; bad; good ] with
  | [ a1; a2; a3 ] ->
      Alcotest.(check int) "leader solves" 0 a1.Engine.status;
      Alcotest.(check bool) "leader not cached" false a1.Engine.cached;
      Alcotest.(check int) "parse error is status 2" 2 a2.Engine.status;
      Alcotest.(check int) "follower shares the answer" 0 a3.Engine.status;
      Alcotest.(check bool) "follower counts as cached" true a3.Engine.cached;
      Alcotest.(check string) "same body" a1.Engine.body a3.Engine.body
  | l -> Alcotest.failf "expected 3 answers, got %d" (List.length l)

let test_daemon_drain () =
  with_daemon @@ fun path ->
  match Client.connect path with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok c -> (
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* Pipelined solve+shutdown: the daemon must answer the solve
         before acknowledging the shutdown (graceful drain). *)
      match
        Client.call_many ~timeout_s:30.0 c
          [
            Protocol.Solve { instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None };
            Protocol.Shutdown;
          ]
      with
      | Error e -> Alcotest.failf "drain round-trip failed: %s" e
      | Ok [ solve; bye ] ->
          Alcotest.(check int) "in-flight solve answered" 0 solve.Protocol.status;
          Alcotest.(check bool) "with a real body" true (solve.Protocol.body <> "");
          Alcotest.(check int) "shutdown acknowledged" 0 bye.Protocol.status;
          Alcotest.(check string) "ack body" "bye" bye.Protocol.body
      | Ok _ -> Alcotest.fail "expected exactly two responses")

(* ---- overload robustness (DESIGN.md section 13) ----------------------- *)

let test_frame_overrun () =
  (* A peer streaming bytes that never complete a frame is cut off at
     the buffer bound, not buffered forever. *)
  Alcotest.(check int) "default bound covers one max frame"
    (Frame.max_payload + 9) Frame.max_buffer;
  (match Frame.create ~max_buffer:3 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a bound below the header width must be rejected");
  let dec = Frame.create ~max_buffer:16 () in
  Frame.feed dec "00000040\n";
  (match Frame.next dec with
  | Ok None -> ()
  | _ -> Alcotest.fail "incomplete payload is not a frame yet");
  Frame.feed dec (String.make 20 'x');
  (match Frame.next dec with
  | Error (Frame.Overrun _) -> ()
  | _ -> Alcotest.fail "feeding past the bound must be Overrun");
  (* sticky, and further input is dropped rather than buffered *)
  Frame.feed dec (String.make 1000 'y');
  (match Frame.next dec with
  | Error (Frame.Overrun _) -> ()
  | _ -> Alcotest.fail "Overrun must be sticky");
  Alcotest.(check bool) "failed decoder stops buffering" true (Frame.buffered dec <= 16)

let test_deadline_budget_mapping () =
  let prep ?budget ?deadline_ms () =
    match
      Solver.prepare ~default_budget:None
        { Protocol.instance_text = sample_text; budget; deadline_ms; trace_id = None }
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "prepare failed: %s" (Hs_core.Hs_error.to_string e)
  in
  (* 1 ms buys exactly deadline_units_per_ms budget units. *)
  let p = prep ~deadline_ms:1 () in
  Alcotest.(check (option int)) "deadline-derived budget"
    (Some Solver.default_deadline_units_per_ms) p.Solver.budget;
  Alcotest.(check bool) "deadline supplied the cap" true p.Solver.deadline_capped;
  (* The cache key must keep deadline-capped solves apart from
     plain-budget solves at equal effective units. *)
  let q = prep ~budget:Solver.default_deadline_units_per_ms () in
  Alcotest.(check (option int)) "same effective units" p.Solver.budget q.Solver.budget;
  Alcotest.(check bool) "distinct cache keys" true (p.Solver.key <> q.Solver.key);
  (* The tighter cap wins. *)
  let r = prep ~budget:50 ~deadline_ms:1 () in
  Alcotest.(check (option int)) "requested budget tighter" (Some 50) r.Solver.budget;
  Alcotest.(check bool) "not deadline-capped" false r.Solver.deadline_capped;
  let s = prep ~budget:500 ~deadline_ms:1 () in
  Alcotest.(check (option int)) "deadline tighter" (Some 100) s.Solver.budget;
  Alcotest.(check bool) "deadline-capped" true s.Solver.deadline_capped;
  (* Exhaustion of a deadline-derived budget is the typed deadline
     error, not a budget one. *)
  match Solver.execute (prep ~deadline_ms:0 ()) with
  | Error (Hs_core.Hs_error.Deadline_exceeded { deadline_ms = 0; _ }) -> ()
  | Error e ->
      Alcotest.failf "expected Deadline_exceeded, got %s" (Hs_core.Hs_error.to_string e)
  | Ok _ -> Alcotest.fail "a zero deadline cannot afford a solve"

let test_daemon_sheds_beyond_queue () =
  (* Queue bound 2, five pipelined solves in one write: the first two are
     admitted (leader + coalesced follower), the rest shed with the
     deterministic retry_after_ms ladder. *)
  with_daemon ~tweak:(fun c -> { c with Daemon.max_queue = 2 }) @@ fun path ->
  match Client.connect path with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok c -> (
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let solve =
        Protocol.Solve { instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None }
      in
      match Client.call_many ~timeout_s:30.0 c [ solve; solve; solve; solve; solve ] with
      | Error e -> Alcotest.failf "pipelined batch failed: %s" e
      | Ok resps ->
          Alcotest.(check (list int)) "admit 2, shed 3" [ 0; 0; 5; 5; 5 ]
            (List.map (fun (r : Protocol.response) -> r.Protocol.status) resps);
          Alcotest.(check (list int)) "deterministic backoff ladder" [ 0; 0; 50; 100; 150 ]
            (List.map (fun (r : Protocol.response) -> r.Protocol.retry_after_ms) resps);
          List.iter
            (fun (r : Protocol.response) ->
              if r.Protocol.status = 5 then
                Alcotest.(check bool) "typed overloaded diagnostic" true
                  (r.Protocol.error <> ""))
            resps)

let test_daemon_deadline_expires_in_queue () =
  with_daemon @@ fun path ->
  match Client.connect path with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok c -> (
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      match
        Client.call ~timeout_s:30.0 c
          (Protocol.Solve
             { instance_text = sample_text; budget = None; deadline_ms = Some 0; trace_id = None })
      with
      | Error e -> Alcotest.failf "deadline call failed: %s" e
      | Ok r ->
          Alcotest.(check int) "expired in the queue is status 6" 6 r.Protocol.status;
          Alcotest.(check bool) "typed deadline diagnostic" true
            (let needle = "deadline exceeded [0 ms]" in
             String.length r.Protocol.error >= String.length needle
             && String.sub r.Protocol.error 0 (String.length needle) = needle))

let test_client_backoff_and_retry () =
  (* The backoff is a pure function: deterministic, monotone in the
     attempt, floored by the server hint. *)
  let b0 = Client.backoff_ms ~attempt:0 ~retry_after_ms:0 ~salt:3 () in
  Alcotest.(check int) "deterministic" b0
    (Client.backoff_ms ~attempt:0 ~retry_after_ms:0 ~salt:3 ());
  Alcotest.(check bool) "hint is a floor" true
    (Client.backoff_ms ~attempt:0 ~retry_after_ms:500 ~salt:3 () >= 500);
  Alcotest.(check bool) "exponential growth" true
    (Client.backoff_ms ~attempt:6 ~retry_after_ms:0 ~salt:3 ()
    > Client.backoff_ms ~attempt:0 ~retry_after_ms:0 ~salt:3 ());
  Alcotest.(check bool) "cap holds" true
    (Client.backoff_ms ~cap_ms:100 ~attempt:60 ~retry_after_ms:0 ~salt:3 () <= 125);
  (* Against an always-overloaded daemon (max_queue = 0) the client
     retries, honouring each response's hint, and finally surfaces the
     typed overloaded answer. *)
  with_daemon ~tweak:(fun c -> { c with Daemon.max_queue = 0 }) @@ fun path ->
  match Client.connect path with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let waits = ref [] in
      let sleep ms = waits := ms :: !waits in
      (match
         Client.call_with_retry ~timeout_s:30.0 ~retries:2 ~sleep c
           (Protocol.Solve
              { instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None })
       with
      | Error e -> Alcotest.failf "retry loop failed: %s" e
      | Ok r ->
          Alcotest.(check int) "still overloaded after retries" 5 r.Protocol.status;
          Alcotest.(check int) "final hint climbs the ladder" 150 r.Protocol.retry_after_ms);
      match List.rev !waits with
      | [ w1; w2 ] ->
          Alcotest.(check bool) "first wait honours the 50 ms hint" true (w1 >= 50);
          Alcotest.(check bool) "second wait honours the 100 ms hint" true (w2 >= 100)
      | l -> Alcotest.failf "expected 2 waits, got %d" (List.length l)

let test_snapshot_roundtrip () =
  let params = { Protocol.instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None } in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hsvc-snap-%d.json" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let a = Engine.create ~jobs:1 ~cache_capacity:8 ~default_budget:None () in
  let fresh = engine_solve_one a params in
  Alcotest.(check int) "solve ok" 0 fresh.Engine.status;
  (match Engine.save_snapshot a path with
  | Ok n -> Alcotest.(check int) "one entry saved" 1 n
  | Error e -> Alcotest.failf "save failed: %s" e);
  (* Restore into a fresh engine: the answer replays byte-identically. *)
  let b = Engine.create ~verify:true ~jobs:1 ~cache_capacity:8 ~default_budget:None () in
  (match Engine.load_snapshot b path with
  | Ok (1, 0) -> ()
  | Ok (l, r) -> Alcotest.failf "expected (1,0), got (%d,%d)" l r
  | Error e -> Alcotest.failf "load failed: %s" e);
  let restored = engine_solve_one b params in
  Alcotest.(check bool) "restored entry replays as a hit" true restored.Engine.cached;
  Alcotest.(check string) "byte-identical answer" fresh.Engine.body restored.Engine.body;
  (* Tamper with the snapshot on disk — flip one byte inside the stored
     body, keeping the JSON well-formed: the restore must reject the
     entry, because a snapshot is data, not an answer. *)
  let text = In_channel.with_open_text path In_channel.input_all in
  let needle = "makespan" in
  let idx =
    let n = String.length text and k = String.length needle in
    let rec go i =
      if i + k > n then Alcotest.fail "snapshot lacks the expected body text"
      else if String.sub text i k = needle then i
      else go (i + 1)
    in
    go 0
  in
  let tampered = Bytes.of_string text in
  Bytes.set tampered idx 'n';
  Out_channel.with_open_text path (fun oc -> Out_channel.output_bytes oc tampered);
  let c = Engine.create ~jobs:1 ~cache_capacity:8 ~default_budget:None () in
  match Engine.load_snapshot c path with
  | Ok (0, 1) ->
      Alcotest.(check int) "tampered entry never lands in the cache" 0
        (Engine.cache_length c)
  | Ok (l, r) -> Alcotest.failf "tampered snapshot accepted: (%d,%d)" l r
  | Error e -> Alcotest.failf "tampered load errored instead of rejecting: %s" e

let test_daemon_snapshot_restart () =
  let snap =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hsvc-restart-%d.json" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
  @@ fun () ->
  let solve c =
    match
      Client.call ~timeout_s:30.0 c
        (Protocol.Solve { instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None })
    with
    | Error e -> Alcotest.failf "solve failed: %s" e
    | Ok r ->
        Alcotest.(check int) "solve ok" 0 r.Protocol.status;
        r
  in
  let first =
    with_daemon ~tweak:(fun c -> { c with Daemon.snapshot_path = Some snap })
    @@ fun path ->
    match Client.connect path with
    | Error e -> Alcotest.failf "connect failed: %s" e
    | Ok c ->
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let r = solve c in
        Alcotest.(check bool) "first daemon solves fresh" false r.Protocol.cached;
        r.Protocol.body
  in
  Alcotest.(check bool) "snapshot written on shutdown" true (Sys.file_exists snap);
  (* Same socket dance, fresh daemon process state: the first request
     after restart must already hit. *)
  with_daemon ~tweak:(fun c -> { c with Daemon.snapshot_path = Some snap })
  @@ fun path ->
  match Client.connect path with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let r = solve c in
      Alcotest.(check bool) "restored cache answers the restart" true r.Protocol.cached;
      Alcotest.(check string) "byte-identical across the restart" first r.Protocol.body

(* The socket file is the readiness signal crams and clients wait on, so
   it must not appear before the snapshot has been restored. *)
let test_socket_after_restore () =
  let snap =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hsvc-ready-%d.json" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
  @@ fun () ->
  (match
     Engine.save_snapshot (Engine.create ~jobs:1 ~cache_capacity:8 ~default_budget:None ()) snap
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  let socket_at_restore = Atomic.make None in
  with_daemon
    ~tweak:(fun c ->
      let log line =
        if String.starts_with ~prefix:"restored" line then
          Atomic.set socket_at_restore (Some (Sys.file_exists c.Daemon.socket_path))
      in
      { c with Daemon.snapshot_path = Some snap; log })
    ignore;
  Alcotest.(check (option bool)) "socket file absent when restored is logged" (Some false)
    (Atomic.get socket_at_restore)

(* ---- observability: flight recorder, introspect, trace spans ---------- *)

module Recorder = Hs_service.Recorder
module Metrics = Hs_obs.Metrics
module Tracer = Hs_obs.Tracer

let test_recorder_ring () =
  (try
     ignore (Recorder.create ~capacity:0);
     Alcotest.fail "capacity 0 must be rejected"
   with Invalid_argument _ -> ());
  let r = Recorder.create ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Recorder.length r);
  for i = 1 to 5 do
    Recorder.record r ~cached:(i mod 2 = 0) ~queue_ms:i ~solve_ms:(10 * i)
      ~digest:(Printf.sprintf "d%d" i) ~status:0 ()
  done;
  Alcotest.(check int) "recorded counts past capacity" 5 (Recorder.recorded r);
  Alcotest.(check int) "ring holds capacity" 3 (Recorder.length r);
  let seqs = List.map (fun (e : Recorder.entry) -> e.seq) (Recorder.entries r) in
  Alcotest.(check (list int)) "oldest first, oldest overwritten" [ 3; 4; 5 ] seqs;
  (* line format is the drain-dump/post-mortem contract *)
  Recorder.record r ~trace_id:"abc123" ~shed_reason:"queue_full" ~retry_after_ms:100
    ~digest:"" ~status:5 ();
  let last = List.nth (Recorder.entries r) 2 in
  Alcotest.(check string) "shed line"
    "#6 status=5 cached=false digest=- queue_ms=0 solve_ms=0 trace=abc123 \
     shed=queue_full retry_after_ms=100"
    (Recorder.entry_to_line last);
  (match List.hd (Recorder.entries r) with
  | e ->
      Alcotest.(check string) "completed line"
        "#4 status=0 cached=true digest=d4 queue_ms=4 solve_ms=40 trace=- shed=-"
        (Recorder.entry_to_line e));
  (* wire round trip for every held entry *)
  List.iter
    (fun (e : Recorder.entry) ->
      match Recorder.entry_of_json (Recorder.entry_to_json e) with
      | Ok e' -> Alcotest.(check bool) "entry round trips" true (e = e')
      | Error err -> Alcotest.failf "entry_of_json: %s" err)
    (Recorder.entries r)

let introspect_doc c ~recent =
  match Client.call ~timeout_s:30.0 c (Protocol.Introspect { recent }) with
  | Error e -> Alcotest.failf "introspect failed: %s" e
  | Ok r ->
      Alcotest.(check int) "introspect is status 0" 0 r.Protocol.status;
      (match Json.parse r.Protocol.body with
      | Error e -> Alcotest.failf "introspect body unparsable: %s" e
      | Ok doc ->
          Alcotest.(check bool) "introspect schema" true
            (Json.member "schema" doc = Some (Json.String "hsched.introspect/1"));
          doc)

let test_daemon_introspect () =
  with_daemon @@ fun path ->
  match Client.connect path with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let solve () =
        match
          Client.call ~timeout_s:30.0 c
            (Protocol.Solve
               { instance_text = sample_text; budget = None; deadline_ms = None; trace_id = None })
        with
        | Ok r when r.Protocol.status = 0 -> r
        | Ok r -> Alcotest.failf "solve failed: %s" r.Protocol.error
        | Error e -> Alcotest.failf "solve failed: %s" e
      in
      let fresh = solve () and hit = solve () in
      Alcotest.(check bool) "second solve hits" true
        (not fresh.Protocol.cached && hit.Protocol.cached);
      let doc = introspect_doc c ~recent:true in
      Alcotest.(check bool) "queue drained" true
        (Json.member "queue_depth" doc = Some (Json.Int 0));
      Alcotest.(check bool) "not draining" true
        (Json.member "draining" doc = Some (Json.Bool false));
      (* the embedded metrics snapshot reconstructs client-side *)
      let snap =
        match Json.member "metrics" doc with
        | None -> Alcotest.fail "introspect body lacks metrics"
        | Some m -> (
            match Metrics.of_json m with
            | Ok s -> s
            | Error e -> Alcotest.failf "metrics snapshot rejected: %s" e)
      in
      (match Metrics.find_histogram snap "service.phase.solve_ms" with
      | Some h -> Alcotest.(check int) "one fresh solve observed" 1 h.Metrics.observations
      | None -> Alcotest.fail "solve_ms histogram not published");
      (match Metrics.find_histogram snap "service.phase.queue_ms" with
      | Some h ->
          Alcotest.(check bool) "queue waits observed" true (h.Metrics.observations >= 2)
      | None -> Alcotest.fail "queue_ms histogram not published");
      (* flight recorder: one fresh entry, one cached hit *)
      (match Json.member "recent" doc with
      | Some (Json.List entries) -> (
          let parsed =
            List.map
              (fun j ->
                match Recorder.entry_of_json j with
                | Ok e -> e
                | Error e -> Alcotest.failf "recent entry rejected: %s" e)
              entries
          in
          match parsed with
          | [ e1; e2 ] ->
              Alcotest.(check bool) "fresh then hit" true
                ((not e1.Recorder.cached) && e2.Recorder.cached);
              Alcotest.(check bool) "both carry the cache key" true
                (e1.Recorder.digest <> "" && e1.Recorder.digest = e2.Recorder.digest);
              Alcotest.(check int) "hits do not re-solve" 0 e2.Recorder.solve_ms
          | es -> Alcotest.failf "expected 2 recent entries, got %d" (List.length es))
      | _ -> Alcotest.fail "recent=true must include the flight recorder");
      (* recent is opt-in *)
      let doc2 = introspect_doc c ~recent:false in
      Alcotest.(check bool) "no recent by default" true (Json.member "recent" doc2 = None)

let test_introspect_during_overload () =
  (* max_queue = 0 sheds every solve, yet introspection stays answerable
     (out-of-band) and the recorder replays the shed with its hint. *)
  with_daemon ~tweak:(fun c -> { c with Daemon.max_queue = 0; recorder_capacity = 4 })
  @@ fun path ->
  match Client.connect path with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok c -> (
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match
         Client.call ~timeout_s:30.0 c
           (Protocol.Solve
              {
                instance_text = sample_text;
                budget = None;
                deadline_ms = None;
                trace_id = Some "feedface00000000";
              })
       with
      | Ok r ->
          Alcotest.(check int) "shed" 5 r.Protocol.status;
          Alcotest.(check int) "first shed hint" 50 r.Protocol.retry_after_ms
      | Error e -> Alcotest.failf "solve failed: %s" e);
      let doc = introspect_doc c ~recent:true in
      match Json.member "recent" doc with
      | Some (Json.List [ j ]) -> (
          match Recorder.entry_of_json j with
          | Error e -> Alcotest.failf "recent entry rejected: %s" e
          | Ok e ->
              Alcotest.(check int) "status" 5 e.Recorder.status;
              Alcotest.(check string) "reason" "queue_full" e.Recorder.shed_reason;
              Alcotest.(check int) "hint replayed" 50 e.Recorder.retry_after_ms;
              Alcotest.(check string) "shed before parsing has no digest" ""
                e.Recorder.digest;
              Alcotest.(check string) "trace id kept" "feedface00000000"
                e.Recorder.trace_id)
      | _ -> Alcotest.fail "expected exactly the shed in the recorder")

let test_traced_solve_returns_spans () =
  with_daemon @@ fun path ->
  match Client.connect path with
  | Error e -> Alcotest.failf "connect failed: %s" e
  | Ok c -> (
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let solve trace_id =
        match
          Client.call ~timeout_s:30.0 c
            (Protocol.Solve
               { instance_text = sample_text; budget = None; deadline_ms = None; trace_id })
        with
        | Ok r when r.Protocol.status = 0 -> r
        | Ok r -> Alcotest.failf "solve failed: %s" r.Protocol.error
        | Error e -> Alcotest.failf "solve failed: %s" e
      in
      let tid = "cafe0123cafe0123" in
      let traced = solve (Some tid) in
      Alcotest.(check bool) "server spans ride the traced response" true
        (traced.Protocol.spans <> []);
      let spans =
        List.map
          (fun j ->
            match Tracer.span_of_json j with
            | Ok s -> s
            | Error e -> Alcotest.failf "span rejected: %s" e)
          traced.Protocol.spans
      in
      let names = List.map (fun (s : Tracer.span) -> s.name) spans in
      List.iter
        (fun want ->
          if not (List.mem want names) then
            Alcotest.failf "missing server span %s (got: %s)" want
              (String.concat ", " names))
        [ "service.queue.wait"; "service.batch"; "service.solve" ];
      List.iter
        (fun (s : Tracer.span) ->
          match List.assoc_opt "trace_id" s.args with
          | Some (Tracer.Str t) when t = tid -> ()
          | _ -> Alcotest.failf "span %s not tagged with the trace id" s.name)
        spans;
      (* spans absorb into a local sink as remote (pid 2 in Chrome) *)
      Tracer.clear ();
      Tracer.absorb_remote spans;
      Alcotest.(check int) "absorbed server-side spans" (List.length spans)
        (List.length (Tracer.spans ()));
      Tracer.clear ();
      (* untraced requests stay span-free on the wire *)
      let untraced = solve None in
      match untraced.Protocol.spans with
      | [] -> ()
      | _ -> Alcotest.fail "untraced response must not carry spans")

let suite =
  ( "service",
    [
      Alcotest.test_case "frame round-trip under ragged feeds" `Quick test_frame_roundtrip;
      Alcotest.test_case "frame decoder typed errors" `Quick test_frame_errors;
      Alcotest.test_case "protocol codec round-trip" `Quick test_protocol_roundtrip;
      Alcotest.test_case "protocol rejects malformed requests" `Quick test_protocol_rejects;
      Alcotest.test_case "LRU cache eviction order" `Quick test_cache_lru;
      Alcotest.test_case "daemon survives the malformed-frame corpus" `Quick
        test_daemon_fault_corpus;
      Alcotest.test_case "daemon survives corrupt_frame fuzzing" `Quick
        test_daemon_fault_fuzz;
      Alcotest.test_case "solve body, cache keys, typed solve errors" `Quick
        test_daemon_solve_and_cache;
      Alcotest.test_case "verifying engine detects cache poisoning" `Quick
        test_engine_cache_poisoning;
      Alcotest.test_case "verified batch keeps coalescing and order" `Quick
        test_engine_verified_batch;
      Alcotest.test_case "shutdown drains in-flight work" `Quick test_daemon_drain;
      Alcotest.test_case "frame decoder bounds its buffer" `Quick test_frame_overrun;
      Alcotest.test_case "deadline folds into the budget and the key" `Quick
        test_deadline_budget_mapping;
      Alcotest.test_case "admission queue sheds with a deterministic ladder" `Quick
        test_daemon_sheds_beyond_queue;
      Alcotest.test_case "queued deadline expires at dispatch" `Quick
        test_daemon_deadline_expires_in_queue;
      Alcotest.test_case "client backoff is deterministic and honors hints" `Quick
        test_client_backoff_and_retry;
      Alcotest.test_case "snapshot round-trips and rejects tampering" `Quick
        test_snapshot_roundtrip;
      Alcotest.test_case "daemon restores its cache across restarts" `Quick
        test_daemon_snapshot_restart;
      Alcotest.test_case "flight recorder ring semantics" `Quick test_recorder_ring;
      Alcotest.test_case "introspect reports live daemon state" `Quick
        test_daemon_introspect;
      Alcotest.test_case "introspect answers during overload" `Quick
        test_introspect_during_overload;
      Alcotest.test_case "traced solve returns tagged server spans" `Quick
        test_traced_solve_returns_spans;
      Alcotest.test_case "socket appears only after the snapshot restore" `Quick
        test_socket_after_restore;
    ] )

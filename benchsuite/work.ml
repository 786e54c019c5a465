(* Scaffolding shared by the four workloads. *)

module Tracer = Hs_obs.Tracer

type size = Full | Toy

type ctx = {
  seed : int;
  seconds : float;  (** measure at least this long, after one full pass *)
  size : size;
  traced : bool;
  hsched : string;  (** daemon binary, for service-mixed *)
  trace_out : string option;  (** Chrome trace file of a traced run *)
}

type result = {
  attempted : int;
  failed : int;
  digest : string;  (** MD5 of the T*/makespan sequence of the first pass *)
  ratio_mean : float;  (** mean makespan / T* over the first pass *)
  slowdown : float;  (** the host's speed during the run, see [speed] *)
  metrics : (string * float) list;
  flags : string list;  (** validity warnings *)
}

(* Every input of a run derives from the seed and a per-use salt. *)
let rng ctx salt = Hs_workloads.Rng.create ((ctx.seed * 1_000_003) + salt)

(* Set-up is what a run does before its first op: input generation,
   Session.create, or the daemon's spawn until it answers plus 20
   warm-up requests.  It is timed [setup_reps] times and reported as the
   median: once before the measured loop, whose value the run uses, and
   again at evenly spaced pauses of the loop, each new value torn down
   at once.  A slow spell of a shared machine lasts a second or more, so
   repetitions back to back would all fall into the same one. *)
let setup_reps ctx = match ctx.size with Full -> 5 | Toy -> 1

type setup = { again : unit -> unit; times : float list ref }

let setup ?(teardown = ignore) make =
  let times = ref [] in
  let timed () =
    let t0 = Clock.now_ns () in
    let v = make () in
    times := Clock.s_since t0 :: !times;
    v
  in
  let v = timed () in
  (v, { again = (fun () -> teardown (timed ())); times })

(* The median set-up time, after timing the repetitions still due. *)
let setup_s ctx s =
  while List.length !(s.times) < setup_reps ctx do
    s.again ()
  done;
  Stats.median (Array.of_list !(s.times))

(* Whether a loop that has measured [elapsed] seconds is due to pause:
   the pauses fall at 1/reps, 2/reps, ... of [ctx.seconds]. *)
let pause_due ctx s elapsed =
  let k = List.length !(s.times) in
  k < setup_reps ctx && elapsed >= ctx.seconds *. float_of_int k /. float_of_int (setup_reps ctx)

(* The host's speed.  On a shared host, allocation-heavy code such as
   this program's exact rationals can run 20-40% slower for minutes at a
   time, longer than a run lasts: on a 2-vCPU VM, ten successive batches
   of the same 75 replays of one trace took 19 to 29 s each.  So every
   run times a fixed reference kernel at regular points, and its
   end-to-end timings are scaled by [kernel_reference_s] over the
   kernel's mean time in the run: they read as at the host's usual
   speed.  In ten runs per workload, one seed each, in a slow hour of
   that VM, the scaling cut the spread of ops_per_s (upper minus lower
   quartile, over the median) from 33% to 11% on online-growth, 28% to
   15% on certify-batch and 15% to 8% on online-churn.  Like the
   program, the kernel allocates short-lived blocks and reads a live
   heap of about 8 MB in scattered order; one that only read and wrote a
   preallocated 4 MB array did not slow down with the program.

   The kernel is the benchmark's own code, never the program's, and it
   runs in a child process ([suite.exe kernel]) while the run waits, so
   no change to the program moves it: run in the program's process, it
   took 10-15% longer beside 20 MB more live heap.  The child runs it
   once untimed first, so the timed run sees a warm heap rather than a
   fresh process's first page faults. *)
let kernel_reference_s = 0.02

let kernel () =
  let state = ref 12345 in
  let draw () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let sorted = List.sort compare (List.init 20_000 (fun _ -> draw ())) in
  let table = Hashtbl.create 1024 in
  List.iter (fun x -> Hashtbl.replace table (x land 0xffff) x) sorted;
  let acc = ref 0 in
  for i = 0 to 20_000 do
    match Hashtbl.find_opt table (i land 0xffff) with Some v -> acc := !acc + v | None -> ()
  done;
  !acc + List.length (List.filter (fun x -> x land 7 = 0) sorted)

(* 2^18 linked cells, about 8 MB with their array, in one cycle that
   visits them in scattered order (the full-period map i -> 5i + 1 mod
   2^18). *)
type cell = { mutable next : cell; v : int }

let live_heap () =
  let n = 1 lsl 18 in
  let cells =
    Array.init n (fun v ->
        let rec c = { next = c; v } in
        c)
  in
  Array.iteri (fun i c -> c.next <- cells.(((5 * i) + 1) land (n - 1))) cells;
  cells.(0)

let chase start steps =
  let c = ref start and acc = ref 0 in
  for _ = 1 to steps do
    c := !c.next;
    acc := !acc + !c.v
  done;
  !acc

let timed_kernel () =
  let start = live_heap () in
  ignore (Sys.opaque_identity (kernel ()));
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel () + chase start 50_000));
  Clock.s_since t0

type speed = { mutable kernel_s : float list }

let speed () = { kernel_s = [] }

let sample sp =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "kernel" |] in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
  | Unix.WEXITED 0, Some s -> sp.kernel_s <- s :: sp.kernel_s
  | _ -> failwith "speed kernel failed"

(* How much slower than usual the host ran: above 1 when slow. *)
let slowdown sp =
  let a = Array.of_list sp.kernel_s in
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) /. kernel_reference_s

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                      float_of_int kb /. 1024.)
                else scan ()
          in
          scan ())

let start_tracing ctx =
  if ctx.traced then begin
    Tracer.set_clock Clock.now_ns;
    Tracer.enable ()
  end

let write_trace ctx =
  match ctx.trace_out with
  | Some path when ctx.traced -> (
      match Tracer.write_chrome path with
      | Ok () -> ()
      | Error e -> prerr_endline ("suite: cannot write trace: " ^ e))
  | _ -> ()

(* The first pass's outputs, in op order: the run's output digest and
   its mean approximation ratio. *)
type first_pass = { buf : Buffer.t; mutable ratio_sum : float; mutable ratios : int }

let first_pass () = { buf = Buffer.create 4096; ratio_sum = 0.; ratios = 0 }

let record fp ~t_lp ~makespan =
  Buffer.add_string fp.buf (Printf.sprintf "%d %d\n" t_lp makespan);
  if t_lp > 0 then begin
    fp.ratio_sum <- fp.ratio_sum +. (float_of_int makespan /. float_of_int t_lp);
    fp.ratios <- fp.ratios + 1
  end

let digest fp = Digest.to_hex (Digest.string (Buffer.contents fp.buf))
let ratio_mean fp = if fp.ratios = 0 then 0. else fp.ratio_sum /. float_of_int fp.ratios

(* A growable sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len

(* Closed loop with one caller: run [op k] for k = 0, 1, ... until at
   least [pass] ops ran and [ctx.seconds] elapsed, pausing the clock to
   time the set-up again when a pause is due, and to time the speed
   kernel at the start and then every three seconds.  Each op is one
   bench.op span when tracing.  Returns the op count, the elapsed seconds without
   the pauses and the per-op latencies in ms. *)
let closed_loop ctx ~pass ~setup ~speed op =
  let lat = samples () in
  let before = ref 0. and t0 = ref (Clock.now_ns ()) in
  let elapsed () = !before +. Clock.s_since !t0 in
  let paused f =
    before := elapsed ();
    f ();
    t0 := Clock.now_ns ()
  in
  let rec go k =
    if k >= pass && elapsed () >= ctx.seconds then k
    else begin
      if pause_due ctx setup (elapsed ()) then paused setup.again;
      if elapsed () >= 3. *. float_of_int (List.length speed.kernel_s) then
        paused (fun () -> sample speed);
      let s = Clock.now_ns () in
      Tracer.with_span ~cat:"bench" "bench.op" (fun () -> op k);
      push lat (Clock.ms_since s);
      go (k + 1)
    end
  in
  let n = go 0 in
  (n, elapsed (), values lat)

let latency_metrics ?(p99 = false) lat =
  [ ("op_p50_ms", Stats.percentile lat 50.); ("op_p95_ms", Stats.percentile lat 95.) ]
  @ if p99 then [ ("op_p99_ms", Stats.percentile lat 99.) ] else []

(* Metrics every in-process traced run derives from its spans: the
   pipeline breakdown, time outside the pipeline and span coverage. *)
let span_metrics ~ops (t : Layers.tally) =
  let op_ns = Layers.get t "bench.op.dur" in
  Layers.pipeline_metrics t
  @ [
      ( "op.outside_pipeline_ms",
        (op_ns -. Layers.get t "pipeline.solve.dur") /. float_of_int ops /. 1e6 );
      ("trace.coverage_pct", 100. *. (1. -. (Layers.get t "bench.op.self" /. op_ns)));
    ]

let traced_tally ctx =
  let t = Layers.create () in
  if ctx.traced then Layers.add_spans t (Tracer.spans ());
  t

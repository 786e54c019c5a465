(* Per-layer attribution from trace spans.

   Spans come from the library's own instrumentation (pipeline.solve,
   search.probe, lp.feasible, simplex.solve, round.lst, sched.alg23, the
   daemon's service.* spans) plus the suite's bench.* spans around each
   public call it makes.  A span's self time is its duration minus the
   time its children cover; the tally sums durations and self times per
   span name, with spans inside a Theorem V.2 solve kept apart under a
   "pipeline/" prefix so the checker's own LP solves are not counted as
   pipeline work. *)

module Tracer = Hs_obs.Tracer
module Metrics = Hs_obs.Metrics

type tally = (string, float) Hashtbl.t

let create () : tally = Hashtbl.create 64
let get (t : tally) k = Option.value ~default:0. (Hashtbl.find_opt t k)
let add (t : tally) k v = Hashtbl.replace t k (get t k +. v)

(* Rebuild the span tree from open order and nesting depth, then tally.
   The spans must come from one thread of one process and one tracer
   epoch (a daemon batch, or one traced workload loop): [seq] restarts
   when a tracer is cleared. *)
let add_spans (t : tally) (spans : Tracer.span list) =
  let arr = Array.of_list spans in
  Array.sort (fun (a : Tracer.span) b -> compare a.seq b.seq) arr;
  let n = Array.length arr in
  let parent = Array.make n (-1) in
  let covered = Array.make n 0. in
  let dur i = Int64.to_float arr.(i).Tracer.dur_ns in
  let stack = ref [] in
  for i = 0 to n - 1 do
    let rec pop = function
      | j :: rest when arr.(j).Tracer.depth >= arr.(i).Tracer.depth -> pop rest
      | s -> s
    in
    stack := pop !stack;
    (match !stack with
    | j :: _ ->
        parent.(i) <- j;
        covered.(j) <- covered.(j) +. dur i
    | [] -> ());
    stack := i :: !stack
  done;
  let rec inside_pipeline i =
    let p = parent.(i) in
    p >= 0 && (arr.(p).Tracer.name = "pipeline.solve" || inside_pipeline p)
  in
  for i = 0 to n - 1 do
    let name = arr.(i).Tracer.name in
    let key = if inside_pipeline i then "pipeline/" ^ name else name in
    add t (key ^ ".dur") (dur i);
    add t (key ^ ".self") (Float.max 0. (dur i -. covered.(i)));
    add t (key ^ ".n") 1.;
    if name = "lp.feasible" && parent.(i) >= 0
       && arr.(parent.(i)).Tracer.name = "pipeline.solve"
    then add t "restricted.dur" (dur i)
  done

let solves t = get t "pipeline.solve.n"

(* Per-solve pipeline breakdown, in ms; empty when no solve was traced. *)
let pipeline_metrics t =
  let n = solves t in
  if n = 0. then []
  else
    let per k = get t k /. n /. 1e6 in
    let lp_build = per "pipeline/lp.feasible.self" in
    [
      ("pipeline.solve_ms", per "pipeline.solve.dur");
      ("pipeline.search_ms", per "pipeline/search.probe.dur");
      ("pipeline.search_self_ms", per "pipeline/search.probe.self");
      ("pipeline.restricted_lp_ms", per "restricted.dur");
      ("pipeline.round_ms", per "pipeline/round.lst.dur");
      ("pipeline.alg23_ms", per "pipeline/sched.alg23.dur");
      ("pipeline.self_ms", per "pipeline.solve.self");
      ("lp.build_ms", lp_build);
      ("lp.simplex_ms", per "pipeline/lp.feasible.dur" -. lp_build);
    ]

(* Library counters, summed as deltas around the calls they belong to. *)
let counter_names =
  [| "simplex.pivots"; "search.lp_relaxations"; "search.probes"; "lp.warm_start.hits";
     "lp.warm_start.misses"; "lp.warm_start.repairs" |]

type counts = { deltas : int array; mutable minor_words : float }

let counts () = { deltas = Array.make (Array.length counter_names) 0; minor_words = 0. }
let cells = Array.map Metrics.counter counter_names

let count c name =
  let rec find i = if counter_names.(i) = name then c.deltas.(i) else find (i + 1) in
  find 0

(* Run [f], adding the counter and minor-heap deltas it causes to [c]. *)
let measure c f =
  let before = Array.map Metrics.value cells in
  let w0 = Gc.minor_words () in
  let r = f () in
  c.minor_words <- c.minor_words +. (Gc.minor_words () -. w0);
  Array.iteri (fun i cell -> c.deltas.(i) <- c.deltas.(i) + Metrics.value cell - before.(i)) cells;
  r

(* The same deltas between two snapshots of another process's registry. *)
let snapshot_deltas c ~(before : Metrics.snapshot) ~(after : Metrics.snapshot) =
  let v s k = Option.value ~default:0 (Metrics.find_counter s k) in
  Array.iteri (fun i k -> c.deltas.(i) <- c.deltas.(i) + v after k - v before k) counter_names

let lp_metrics c ~solves ~simplex_ms =
  if solves = 0 then []
  else
    let per name = float_of_int (count c name) /. float_of_int solves in
    let hits = count c "lp.warm_start.hits" and misses = count c "lp.warm_start.misses" in
    let pivots = count c "simplex.pivots" in
    [
      ("pipeline.search_probes", per "search.probes");
      ("lp.solves", per "search.lp_relaxations");
      ("lp.pivots", per "simplex.pivots");
      ("lp.warm_hits", per "lp.warm_start.hits");
      ("lp.warm_misses", per "lp.warm_start.misses");
      ("lp.warm_repairs", per "lp.warm_start.repairs");
      ( "lp.warm_hit_ratio",
        if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses) );
    ]
    @
    match simplex_ms with
    | Some ms when pivots > 0 ->
        [ ("lp.us_per_pivot", ms *. 1e3 *. float_of_int solves /. float_of_int pivots) ]
    | _ -> []

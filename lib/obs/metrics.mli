(** Metrics registry: named counters, gauges, and fixed-bucket
    histograms.  Names are process-global; values are {e domain-local}.

    Instruments register a metric once at module initialisation
    ([let pivots = Metrics.counter "simplex.pivots"]) and then mutate a
    plain cell — an increment is a domain-local-storage read and an
    integer store, cheap enough for the simplex pivot loop and free of
    cross-domain contention.  Registration is idempotent: the same name
    yields the same cell, so functor instantiations (exact and float
    fields share one solver module) do not double-register.

    Each domain accumulates into its own cells: a worker domain of the
    {!Hs_exec} pool takes a {!snapshot} when it finishes and the main
    domain folds it back in with {!merge}.  Because counters count
    algorithmic events and merging is commutative, a parallel sweep's
    final snapshot equals the sequential one.

    Snapshots are {e deterministic} except for wall time: entries are
    sorted by name, and counters, gauges and every histogram but the
    {!ms_buckets} ones count algorithmic events (pivots, nodes, probes),
    never wall-clock, so two identical seeded solves agree on all of
    them, which the test suite asserts on.  The exception is the
    wall-millisecond histograms built on {!ms_buckets}:
    [online.event_ms] (in [hsched online --stats-json]) and the
    daemon's [service.phase.{queue,solve,render,write}_ms].  Their
    bucket counts and sums vary from run to run, so a byte-identical
    snapshot holds only where none of them was observed.

    Naming convention (DESIGN.md §9): [<layer>.<quantity>] in
    [snake_case], e.g. ["simplex.pivots"], ["bb.nodes"],
    ["sched.migrations"]; budget meters use
    ["budget.<resource>.limit" / ".consumed"]. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Registered (or retrieved) by name; starts at 0. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : string -> gauge
(** A settable integer; starts at 0. *)

val set : gauge -> int -> unit
val gauge_value : gauge -> int

val histogram : ?buckets:int list -> string -> histogram
(** Fixed upper-bound buckets (default powers of ten up to 10^6), plus
    an implicit overflow bucket.  Re-registering an existing name keeps
    the original buckets. *)

val ms_buckets : int list
(** The shared wall-millisecond bucket ladder (1 ms .. 10 s) used by
    every [*.phase.*_ms] and per-event latency histogram across the
    service and online subsystems, so their quantiles line up in
    [hsched stats] and the Prometheus exposition. *)

val observe : histogram -> int -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  buckets : int list;  (** upper bounds, ascending *)
  counts : int array;  (** length = #buckets + 1; last = overflow *)
  sum : int;
  observations : int;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** The calling domain's values for every registered name (metrics the
    domain never touched read as zero). *)

val reset : unit -> unit
(** Zero every metric of the calling domain (registrations persist). *)

val merge : snapshot -> unit
(** Fold a snapshot — typically taken in a worker domain — into the
    calling domain's registry: counters and histogram buckets are
    summed, gauges keep the maximum of both sides.  Every operation is
    commutative and associative, so the result is independent of the
    order worker snapshots arrive in. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option
val find_histogram : snapshot -> string -> hist_snapshot option

val to_json : snapshot -> Json.t
(** Stable shape: [{"schema": "hsched.metrics/1", "counters": {..},
    "gauges": {..}, "histograms": {..}}]. *)

val of_json : Json.t -> (snapshot, string) result
(** Decode {!to_json} output back into a snapshot — how [hsched stats]
    reconstructs a daemon's registry from the introspection response.
    Total on untrusted input: a wrong schema tag, a non-integer value or
    a histogram whose [counts] length disagrees with its [buckets] is an
    [Error], never an exception. *)

val prometheus_name : string -> string
(** The exposition name for a registry name: prefixed ["hsched_"],
    characters outside [[a-zA-Z0-9_]] mapped to ['_'].  Exposed so the
    naming contract is testable. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition (format version 0.0.4).  Names are
    prefixed ["hsched_"] with every character outside [[a-zA-Z0-9_]]
    mapped to ['_']; counters and gauges become single samples under a
    [# TYPE] header, histograms emit cumulative [_bucket{le="..."}]
    samples closed by [le="+Inf"], then [_sum] and [_count]. *)

val pp_summary : Format.formatter -> snapshot -> unit
(** Human-readable table (one metric per line), for [--stats]. *)

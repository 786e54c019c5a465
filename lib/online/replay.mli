(** The online scheduler (DESIGN.md §15): maintain a certified assignment
    of the live jobs on the active machines across a stream of
    {!Trace.event}s, re-solving with the Theorem V.2 pipeline under a
    configurable migration budget.

    {b State.}  After every event the scheduler holds an assignment of
    each live job to an admissible set of the {e active} family (the base
    family restricted to the machines not yet drained) and reports its
    Theorem IV.3 minimal horizon as the current makespan.

    {b Per-event algorithm.}  First the structural change: an arriving
    job is placed greedily on the admissible set minimising the resulting
    horizon (placement of a new job is free); a departure frees its
    volume; a drain restricts the family and force-migrates the stranded
    jobs (forced moves are exempt from the budget, accounted separately).
    Then one fresh {!Hs_core.Approx.Exact.solve} of the active instance
    yields the certified lower bound [T*] and a 2-approximate candidate
    assignment.  The candidate is adopted iff the cumulative voluntarily
    migrated volume stays within [β ·] (total arrived volume) — exact
    rationals — {e and} it strictly improves the makespan.

    {b Guarantee.}  Whenever the budget admits the re-solve, the current
    makespan is ≤ 2·T* against the {e fresh} lower bound (adopted, or
    strictly better than the candidate); with an unlimited budget every
    step is therefore within the Theorem V.2 envelope.  Every step can be
    certified end-to-end by {!Hs_check.Certify.online_step}.

    Replay is sequential and deterministic; [?jobs] parallelises only the
    per-step certification (a pure function of recorded step artifacts),
    so output is byte-identical at any job count. *)

open Hs_laminar
module Q = Hs_numeric.Q

type step = {
  event_id : int;
  event : Trace.event;
  live : int;  (** live jobs after the event *)
  active : int;  (** machines still in service *)
  makespan : int;  (** Theorem IV.3 horizon of the current assignment *)
  t_lp : int;  (** fresh LP lower bound on OPT of the active instance *)
  candidate : int;  (** makespan of the fresh re-solve's assignment *)
  resolve_admitted : bool;  (** adopting the candidate fit the budget *)
  adopted : bool;  (** candidate adopted (admitted and strictly better) *)
  migrated : int;  (** voluntary volume migrated at this step *)
  forced : int;  (** drain-forced volume migrated at this step *)
  migrated_total : int;  (** cumulative voluntary volume *)
  forced_total : int;
  arrived_total : int;  (** cumulative arrived volume (min finite times) *)
  move_levels : int list;
      (** one entry (sorted) per job whose member set changed at this
          step: the height of the smallest base-family set spanning the
          old and new homes — the latency model of [hsched simulate],
          so migration stalls can be charged per level *)
  ratio : Q.t option;  (** makespan / T*; [None] when T* = 0 *)
  verdict : Hs_check.Verdict.t option;  (** present when checking *)
}

type summary = {
  events : int;
  arrivals : int;
  departures : int;
  drains : int;
  resolves : int;  (** fresh re-solves performed (= non-empty steps) *)
  adoptions : int;
  budget_blocked : int;  (** re-solves the budget refused to adopt *)
  arrived_volume : int;
  migrated_volume : int;  (** voluntary, counted against the budget *)
  forced_volume : int;  (** drain-forced, exempt *)
  final_makespan : int;
  max_ratio : Q.t option;  (** over steps with T* > 0 *)
  mean_ratio : Q.t option;
  certified : int;  (** steps carrying a passing verdict *)
  check_failures : int;
}

type outcome = { steps : step list; summary : summary }

(** {1 Streaming sessions}

    The incremental surface behind the daemon's [online] verb: events
    arrive one by one and are validated {e dynamically} (same rules as
    {!Trace.make} — unknown ids, stranded jobs and last-machine drains
    are rejected without corrupting the session). *)

module Session : sig
  type t

  val create :
    ?beta:Q.t ->
    ?check:bool ->
    ?lp:bool ->
    Laminar.t ->
    (t, string) result
  (** [beta] is the migration budget coefficient (absent = unlimited);
      [check] certifies every step inline; [lp] additionally re-derives
      each step's lower bound inside the certificate.  Each event's
      re-solve is an independent cold {!Hs_core.Approx.Exact.solve_checked}:
      no LP basis is carried from one event to the next.  Fails unless
      the family is singleton-complete. *)

  val step : t -> int * Trace.event -> (step, string) result
  (** Apply one event.  An [Error] rejects the event and leaves the
      session state untouched. *)

  val summary : t -> summary
end

val run :
  ?beta:Q.t ->
  ?check:bool ->
  ?lp:bool ->
  ?jobs:int ->
  Trace.t ->
  (outcome, string) result
(** Replay a whole (statically validated) trace.  With [check], step
    certification fans out over [jobs] domains ({!Hs_exec.parmap});
    everything else is sequential, so the outcome is identical at any
    [jobs]. *)

val vs_baseline : outcome -> baseline:outcome -> Q.t option * Q.t option
(** [(max, mean)] per-step makespan ratio of an outcome against a replay
    of the same trace — pass the unlimited-budget replay as [baseline]
    for the competitive-ratio-vs-clairvoyant harness.  Steps where the
    baseline makespan is [0] are skipped; [None] when no step counts. *)

(** {1 Rendering} *)

val decimal : Q.t -> string
(** Deterministic 3-decimal fixed-point rendering (rounded down). *)

val step_to_json : step -> Hs_obs.Json.t
val summary_to_json : summary -> Hs_obs.Json.t

val outcome_to_json : outcome -> Hs_obs.Json.t
(** [{"schema": "hsched.online/1", "steps": [...], "summary": {...}}]. *)

val step_of_json : Hs_obs.Json.t -> (step, string) result
(** Decode a wire step (the body of the daemon's [online event] answer).
    Rendering-faithful, not lossless: the arrival row comes back empty
    and a reconstructed verdict keeps only the pass/fail outcome and the
    first failure's diagnostic — exactly what {!render_table} needs, so
    a streamed table matches the offline one byte for byte. *)

val summary_of_json : Hs_obs.Json.t -> (summary, string) result

val render_table : Buffer.t -> step list -> unit
(** The per-event table of [hsched online]. *)

val render_summary : Buffer.t -> ?beta:Q.t -> summary -> unit

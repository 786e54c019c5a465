(** Typed errors for the solver pipeline.

    The pipeline reports failures as values of {!t} instead of ad-hoc
    [failwith] strings: callers branch on the kind of failure (degrade
    on budget exhaustion, reject on a parse error) and each kind carries
    a stable CLI exit code ({!exit_code}). *)

type stage =
  | Parse  (** reading an instance from text *)
  | Validate  (** laminarity / monotonicity validation *)
  | Search  (** the binary search over LP-feasible horizons *)
  | Lp  (** a simplex solve *)
  | Rounding  (** LST or iterative rounding *)
  | Bb  (** branch-and-bound node expansion *)
  | Sched  (** realising the assignment as a schedule *)

type t =
  | Parse_error of string  (** malformed instance text *)
  | Invalid_instance of string  (** well-formed text, invalid model *)
  | Budget_exhausted of { stage : stage; detail : string }
      (** a deterministic resource budget ran out at [stage] *)
  | Infeasible of { reason : string; certified : bool }
      (** the instance admits no schedule; [certified] when backed by a
          verified Farkas witness *)
  | Verification of { invariant : string; witness : string }
      (** an independent certificate check ([lib/check]) rejected a
          produced or cached artifact; [invariant] names the first
          violated paper condition, [witness] pinpoints it *)
  | Overloaded of { retry_after_ms : int }
      (** the service admission queue is full; the request was shed, not
          queued — retry after the (deterministic) hinted delay *)
  | Deadline_exceeded of { deadline_ms : int; detail : string }
      (** a per-request deadline expired before a result could be
          produced (in the admission queue, or as a deadline-derived
          budget exhausted mid-solve) *)
  | Unavailable of string
      (** the service endpoint is absent or refusing connections — no
          daemon at the socket, connection refused, peer vanished *)
  | Internal of string  (** an invariant the paper guarantees was broken *)

exception Error of t
(** Internal control flow of the pipeline; public entry points catch it
    and return [result] values ({!guard}). *)

val raise_ : t -> 'a

val stage_name : stage -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val exit_code : t -> int
(** CLI contract: [2] unusable input (parse / validation), [3]
    infeasible, [4] budget exhausted, [5] overloaded (shed by admission
    control), [6] deadline exceeded, [7] service unavailable, [1]
    everything else. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run a pipeline fragment, capturing a raised {!Error}. *)

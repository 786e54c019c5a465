(** Typed errors for the solver pipeline.

    Every failure the pipeline can report is one of these variants, so
    callers (the CLI, the fault-injection harness, a future service
    front end) can branch on the {e kind} of failure instead of matching
    error strings, and each kind maps to a stable process exit code. *)

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

let raise_ e = raise (Error e)

let stage_name = function
  | Parse -> "parse"
  | Validate -> "validate"
  | Search -> "horizon-search"
  | Lp -> "lp"
  | Rounding -> "rounding"
  | Bb -> "branch-and-bound"
  | Sched -> "schedule"

let to_string = function
  | Parse_error msg -> Printf.sprintf "parse error: %s" msg
  | Invalid_instance msg -> Printf.sprintf "invalid instance: %s" msg
  | Budget_exhausted { stage; detail } ->
      Printf.sprintf "budget exhausted [%s]: %s" (stage_name stage) detail
  | Infeasible { reason; certified } ->
      Printf.sprintf "infeasible%s: %s" (if certified then " (certified)" else "") reason
  | Verification { invariant; witness } ->
      Printf.sprintf "verification failed [%s]: %s" invariant witness
  | Overloaded { retry_after_ms } ->
      Printf.sprintf "overloaded: admission queue is full, retry after %d ms"
        retry_after_ms
  | Deadline_exceeded { deadline_ms; detail } ->
      Printf.sprintf "deadline exceeded [%d ms]: %s" deadline_ms detail
  | Unavailable msg -> Printf.sprintf "service unavailable: %s" msg
  | Internal msg -> Printf.sprintf "internal error: %s" msg

let pp fmt e = Format.pp_print_string fmt (to_string e)

(* Exit-code contract of the CLI: 2 unusable input, 3 infeasible,
   4 budget exhausted, 5 overloaded, 6 deadline exceeded, 7 service
   unavailable, 1 anything else. *)
let exit_code = function
  | Parse_error _ | Invalid_instance _ -> 2
  | Infeasible _ -> 3
  | Budget_exhausted _ -> 4
  | Overloaded _ -> 5
  | Deadline_exceeded _ -> 6
  | Unavailable _ -> 7
  | Verification _ | Internal _ -> 1

(** Run [f], turning a raised {!Error} into [Error]. *)
let guard f = try Ok (f ()) with Error e -> Error e

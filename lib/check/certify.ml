(** Whole-artifact certificates: bundle the per-invariant checkers of
    {!Check} into one verdict per artifact kind, including the pipeline
    outcomes of {!Hs_core.Approx}.  The expensive LP recomputation
    (re-deriving the certified lower bound with an exact simplex) is on
    by default and can be switched off for bulk verification. *)

open Hs_model
module A = Hs_core.Approx
module V = Verdict

let instance inst =
  V.make ~subject:"instance"
    (Check.laminar_family (Instance.laminar inst) @ Check.monotonicity inst)

let assignment inst a ~tmax =
  V.make ~subject:"assignment"
    (Check.laminar_family (Instance.laminar inst)
    @ Check.monotonicity inst
    @ Check.assignment inst a ~tmax)

let schedule inst a sched =
  let tmax = Schedule.horizon sched in
  V.make ~subject:"schedule"
    (Check.laminar_family (Instance.laminar inst)
    @ Check.monotonicity inst
    @ Check.assignment inst a ~tmax
    @ Check.schedule inst a sched)

(* The full Theorem V.2 pipeline outcome: the artifact is checked
   against the singleton-closed instance it refers to. *)
let outcome ?(lp = true) (o : A.Exact.outcome) =
  let inst = o.A.Exact.instance in
  let items =
    Check.laminar_family (Instance.laminar inst)
    @ Check.monotonicity inst
    @ Check.assignment inst o.assignment ~tmax:o.makespan
    @ Check.schedule inst o.assignment o.schedule
    @ [
        V.check ~invariant:"outcome.makespan"
          (Schedule.makespan o.schedule <= o.makespan
          && Schedule.horizon o.schedule <= o.makespan)
          ~witness:
            (Printf.sprintf "schedule runs to %d, reported makespan %d"
               (Schedule.makespan o.schedule) o.makespan)
          ~detail:
            (Printf.sprintf "schedule completes within reported makespan %d"
               o.makespan);
      ]
    @ (if lp then Check.lp_lower_bound inst ~t_lp:o.t_lp else [])
    @ Check.theorem_v2 ~t_lp:o.t_lp ~makespan:o.makespan
  in
  V.make ~subject:"outcome" items

(* One intermediate state of the online scheduler: the active instance,
   the current certified assignment and its realised schedule, plus the
   online-specific accounting invariants.  [?lp] re-derives the step's
   fresh lower bound with the exact simplex, as for [outcome]. *)
let online_step ?(lp = false) inst a sched ~makespan ~t_lp ~resolve_admitted
    ~migrated ~allowed =
  V.make ~subject:"online-step"
    (Check.laminar_family (Instance.laminar inst)
    @ Check.monotonicity inst
    @ Check.assignment inst a ~tmax:makespan
    @ Check.schedule inst a sched
    @ Check.online_step inst a ~makespan ~t_lp ~resolve_admitted ~migrated
        ~allowed
    @ if lp then Check.lp_lower_bound inst ~t_lp else [])

module Ilp_exact = Hs_core.Ilp.Make (Hs_lp.Field.Exact)

(* A robust (budgeted) outcome: the lower bound's meaning depends on the
   path that produced the artifact. *)
let robust ?(lp = true) (r : A.robust_outcome) =
  let inst = r.A.r_instance in
  let base =
    Check.laminar_family (Instance.laminar inst)
    @ Check.monotonicity inst
    @ Check.assignment inst r.r_assignment ~tmax:r.r_makespan
    @ Check.schedule inst r.r_assignment r.r_schedule
    @ [
        V.check ~invariant:"outcome.bound-order"
          (r.r_lower_bound <= r.r_makespan)
          ~witness:
            (Printf.sprintf "lower bound %d > makespan %d" r.r_lower_bound
               r.r_makespan)
          ~detail:
            (Printf.sprintf "lower bound %d ≤ makespan %d" r.r_lower_bound
               r.r_makespan);
      ]
  in
  let provenance =
    match r.r_provenance with
    | A.Exact_optimal ->
        [
          V.check ~invariant:"outcome.optimal"
            (r.r_lower_bound = r.r_makespan)
            ~witness:
              (Printf.sprintf "claimed optimal but bound %d ≠ makespan %d"
                 r.r_lower_bound r.r_makespan)
            ~detail:"proven optimum: lower bound equals makespan";
        ]
        @
        if lp then
          (* The LP horizon T* lower-bounds OPT; a proven optimum below
             a feasible T* would be a contradiction. *)
          match Ilp_exact.min_feasible_t inst with
          | Some (t_lp, _) ->
              [
                V.check ~invariant:"outcome.lp-consistent"
                  (t_lp <= r.r_makespan)
                  ~witness:
                    (Printf.sprintf "LP lower bound %d > claimed optimum %d" t_lp
                       r.r_makespan)
                  ~detail:
                    (Printf.sprintf "LP lower bound %d ≤ optimum %d" t_lp
                       r.r_makespan);
              ]
          | None ->
              [
                V.fail ~invariant:"outcome.lp-consistent"
                  "no LP-feasible horizon exists yet a schedule was produced";
              ]
        else []
    | A.Lp_approx ->
        (if lp then Check.lp_lower_bound inst ~t_lp:r.r_lower_bound else [])
        @ Check.theorem_v2 ~t_lp:r.r_lower_bound ~makespan:r.r_makespan
  in
  V.make ~subject:"outcome" (base @ provenance)

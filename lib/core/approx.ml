(** Theorem V.2: the polynomial-time 2-approximation for hierarchical
    scheduling, plus the Section II 8-approximation for general
    (non-laminar) families.

    Pipeline (laminar case):
    + close the family under singletons (processing time of the minimal
      original superset — the convention of Section V),
    + binary-search the minimal integer horizon [T*] at which the (IP-3)
      relaxation is feasible ([T* ≤ OPT]),
    + by Lemma V.1 ({!Pushdown}) the {e unrelated-machines} relaxation
      [I_u] is then feasible at [T*] as well, so re-solve that restricted
      LP to a {e basic} (vertex) solution — the rounding theorem needs a
      vertex, which the push-down transformation itself does not
      preserve,
    + round with Lenstra–Shmoys–Tardos ({!Lst_rounding}),
    + realise the integral assignment with Algorithms 2–3.

    The resulting makespan is at most [2·T* ≤ 2·OPT]. *)

open Hs_model

(* The branch-and-bound unit of this library, aliased before the local
   [Exact] field instance below shadows the name. *)
module Exact_bb = Exact

module Make (F : Hs_lp.Field.S) = struct
  module I = Ilp.Make (F)
  module R = Lst_rounding.Make (F)

  (** The unrelated-machines restriction [I_u] of a singleton-closed
      instance: keep only the singleton masks (Section V). *)
  let unrelated_restriction closed =
    Instance.unrelated ~m:(Instance.nmachines closed) (Instance.singleton_times closed)

  type outcome = {
    instance : Instance.t;  (** the singleton-closed instance solved *)
    translate : int -> int option;
        (** closed set id → original set id ([None] for added singletons) *)
    assignment : Assignment.t;  (** over the closed instance *)
    t_lp : int;  (** minimal LP-feasible horizon — a lower bound on OPT *)
    makespan : int;  (** achieved integral makespan, ≤ 2·t_lp *)
    schedule : Schedule.t;
    rounding : R.stats;
  }

  (** The budget-aware pipeline.  Raises {!Hs_error.Error} on any typed
      failure (infeasibility, budget exhaustion, broken invariant);
      [trip] is the fault-injection hook, fired on entry to each
      stage. *)
  let solve_x ?pivots ?(trip = fun (_ : Hs_error.stage) -> ()) inst : outcome =
    Hs_obs.Tracer.with_span ~cat:"pipeline"
      ~args:[ ("jobs", Hs_obs.Tracer.Int (Instance.njobs inst)) ]
      "pipeline.solve"
    @@ fun () ->
    let closed, translate = Instance.with_singletons inst in
    match I.min_feasible_t_x ?pivots ~trip closed with
    | None ->
        Hs_error.raise_
          (Infeasible
             { reason = "no feasible horizon (some job has no finite mask)"; certified = false })
    | Some (t_lp, _frac) -> (
        let iu = unrelated_restriction closed in
        match I.lp_feasible_x ?pivots ~trip iu ~tmax:t_lp with
        | None ->
            (* Contradicts Lemma V.1: the hierarchical LP was feasible. *)
            Hs_error.raise_
              (Internal
                 (Printf.sprintf "Lemma V.1 feasibility transfer failed at T=%d" t_lp))
        | Some frac_u -> (
            trip Hs_error.Rounding;
            match R.round iu frac_u with
            | Error e -> Hs_error.raise_ (Internal ("rounding failed: " ^ e))
            | Ok (assignment_u, rounding) -> (
                (* Lift machines back onto the closed family's singletons. *)
                let lam_u = Instance.laminar iu in
                let lam_c = Instance.laminar closed in
                let assignment =
                  Array.map
                    (fun s ->
                      let machine = (Hs_laminar.Laminar.members lam_u s).(0) in
                      Option.get (Hs_laminar.Laminar.singleton lam_c machine))
                    assignment_u
                in
                let makespan = Assignment.min_makespan closed assignment in
                trip Hs_error.Sched;
                match Hierarchical.schedule closed assignment ~tmax:makespan with
                | Error e -> Hs_error.raise_ (Internal ("scheduler failed: " ^ e))
                | Ok schedule ->
                    Hs_obs.Tracer.add_args
                      [
                        ("t_lp", Hs_obs.Tracer.Int t_lp);
                        ("makespan", Hs_obs.Tracer.Int makespan);
                      ];
                    { instance = closed; translate; assignment; t_lp; makespan; schedule; rounding })))

  let solve_checked inst : (outcome, Hs_error.t) result =
    Hs_error.guard (fun () -> solve_x inst)

  let solve inst : (outcome, string) result =
    Result.map_error Hs_error.to_string (solve_checked inst)
end

module Exact = Make (Hs_lp.Field.Exact)
module Fast = Make (Hs_lp.Field.Float)

(** The Section II algorithm for arbitrary admissible families: reduce to
    unrelated machines (taking, for each machine, the cheapest admissible
    set containing it), 2-approximate the reduced instance, and lift the
    partitioned solution back via witness sets.  The reduced LP horizon
    lower-bounds the original preemptive optimum, and the paper's chain
    of inequalities bounds the overall factor by 8. *)
type general_outcome = {
  machine_assignment : int array;  (** job → machine *)
  set_assignment : int array;  (** job → index into the family, via witnesses *)
  makespan : int;  (** of the lifted (partitioned) schedule *)
  lower_bound : int;  (** LP preemptive lower bound of the reduced instance *)
}

let solve_general (g : General_instance.t) : (general_outcome, string) result =
  let module A = Make (Hs_lp.Field.Exact) in
  let iu = General_instance.to_unrelated g in
  match A.solve iu with
  | Error e -> Error e
  | Ok o ->
      let lam = Instance.laminar o.instance in
      let n = General_instance.njobs g in
      let machine_assignment =
        Array.init n (fun j -> (Hs_laminar.Laminar.members lam o.assignment.(j)).(0))
      in
      let set_assignment =
        Array.init n (fun j ->
            match General_instance.witness_set g ~job:j ~machine:machine_assignment.(j) with
            | Some k -> k
            | None -> -1)
      in
      Ok { machine_assignment; set_assignment; makespan = o.makespan; lower_bound = o.t_lp }

(** {1 Resilient entry point}

    [solve_robust] wraps the exact branch and bound and the Theorem V.2
    pipeline behind deterministic resource budgets with graceful
    degradation: exact (when a node budget is given) → LP + LST
    rounding.  Every schedule that leaves this function has been
    re-checked by {!Hs_model.Schedule.validate} and carries the
    provenance of the path that produced it. *)

type provenance =
  | Exact_optimal  (** proven optimum from branch and bound *)
  | Lp_approx  (** the 2-approximation *)

(* The LP path runs the simplex's default Dantzig pricing, whose switch
   to Bland's rule on a degenerate run is internal to each solve. *)
let provenance_to_string = function
  | Exact_optimal -> "exact (branch and bound, proven optimal)"
  | Lp_approx -> "lp-rounding 2-approximation (dantzig pricing)"

type robust_outcome = {
  r_instance : Instance.t;
      (** the instance the assignment refers to: the original one on the
          exact path, its singleton closure on the LP path *)
  r_assignment : Assignment.t;
  r_makespan : int;
  r_lower_bound : int;  (** proven optimum, or the LP horizon [T*] *)
  r_schedule : Schedule.t;
  r_provenance : provenance;
  r_fallbacks : Hs_error.t list;
      (** degradations taken before the successful path, oldest first *)
  r_consumed : Budget.t;
      (** pivots actually spent by the LP stages: [lp_pivots] is [Some]
          only when the caller budgeted pivots, and [bb_nodes] is always
          [None] (branch-and-bound nodes are reported by {!Exact.stats},
          not metered here) *)
}

let solve_robust ?(budget = Budget.unlimited) ?(on_exhausted = `Fallback) ?inject inst :
    (robust_outcome, Hs_error.t) result =
  let pivots = Option.map Hs_lp.Simplex.budget budget.Budget.lp_pivots in
  (* Fault injection: the first time the pipeline enters [inject]'s
     stage, behave exactly as if the budget ran out there. *)
  let injected = ref inject in
  let trip stage =
    match !injected with
    | Some s when s = stage ->
        injected := None;
        Hs_error.raise_ (Budget_exhausted { stage; detail = "injected fault" })
    | _ -> ()
  in
  let certify ~fallbacks ~provenance ~lower_bound ~instance ~assignment ~makespan ~schedule =
    match Schedule.validate instance assignment schedule with
    | Error e -> Hs_error.raise_ (Internal ("re-certification failed: " ^ e))
    | Ok () ->
        {
          r_instance = instance;
          r_assignment = assignment;
          r_makespan = makespan;
          r_lower_bound = lower_bound;
          r_schedule = schedule;
          r_provenance = provenance;
          r_fallbacks = fallbacks;
          r_consumed = Budget.consumed pivots;
        }
  in
  let exact_attempt () =
    trip Hs_error.Bb;
    match Exact_bb.optimal_checked ~budget inst with
    | Error e -> Hs_error.raise_ e
    | Ok (assignment, span, _stats) -> (
        trip Hs_error.Sched;
        match Hierarchical.schedule inst assignment ~tmax:span with
        | Error e -> Hs_error.raise_ (Internal ("scheduler failed on exact assignment: " ^ e))
        | Ok schedule ->
            certify ~fallbacks:[] ~provenance:Exact_optimal ~lower_bound:span ~instance:inst
              ~assignment ~makespan:span ~schedule)
  in
  let lp_attempt ~fallbacks =
    let o = Exact.solve_x ?pivots ~trip inst in
    certify ~fallbacks ~provenance:Lp_approx ~lower_bound:o.Exact.t_lp
      ~instance:o.Exact.instance ~assignment:o.Exact.assignment ~makespan:o.Exact.makespan
      ~schedule:o.Exact.schedule
  in
  let result =
    Hs_error.guard (fun () ->
        match budget.Budget.bb_nodes with
        | None -> lp_attempt ~fallbacks:[]
        | Some _ -> (
            try exact_attempt ()
            with Hs_error.Error (Budget_exhausted _ as e) when on_exhausted = `Fallback ->
              lp_attempt ~fallbacks:[ e ]))
  in
  Budget.record_metrics pivots;
  result

(* Solver-outcome reports; moved here from bin/hsched.ml so the daemon
   and the CLI cannot drift apart (byte-identity is pinned by
   test/service.t). *)

open Hs_model
module L = Hs_laminar.Laminar

let exact_outcome (o : Hs_core.Approx.Exact.outcome) =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "LP lower bound T* = %d\n" o.t_lp;
  pr "achieved makespan = %d  (guarantee: <= %d)\n" o.makespan (2 * o.t_lp);
  pr "fractional jobs rounded: %d (matched %d)\n" o.rounding.fractional_jobs
    o.rounding.matched;
  let lam = Instance.laminar o.instance in
  Array.iteri
    (fun j s ->
      pr "  job %d -> {%s} (p=%s)\n" j
        (String.concat ","
           (List.map string_of_int (Array.to_list (L.members lam s))))
        (Ptime.to_string (Instance.ptime o.instance ~job:j ~set:s)))
    o.assignment;
  (match Schedule.validate o.instance o.assignment o.schedule with
  | Ok () -> pr "schedule: VALID, horizon %d\n" (Schedule.horizon o.schedule)
  | Error e -> pr "schedule: INVALID (%s)\n" e);
  Buffer.contents buf

let robust_outcome ~(budget : Hs_core.Budget.t) (r : Hs_core.Approx.robust_outcome) =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "path: %s\n" (Hs_core.Approx.provenance_to_string r.r_provenance);
  List.iter
    (fun e -> pr "degraded: %s\n" (Hs_core.Hs_error.to_string e))
    r.r_fallbacks;
  (match (budget.Hs_core.Budget.lp_pivots, r.r_consumed.Hs_core.Budget.lp_pivots) with
  | Some limit, Some used -> pr "budget: used %d of %d pivots\n" used limit
  | _ -> ());
  pr "lower bound = %d\n" r.r_lower_bound;
  pr "achieved makespan = %d  (guarantee: <= %d)\n" r.r_makespan (2 * r.r_lower_bound);
  pr "schedule: VALID (re-certified), horizon %d\n" (Schedule.horizon r.r_schedule);
  Buffer.contents buf

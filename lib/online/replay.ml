(* The online scheduler; algorithm and guarantees in the interface. *)

open Hs_model
open Hs_laminar
module Q = Hs_numeric.Q
module V = Hs_check.Verdict
module Json = Hs_obs.Json
module Metrics = Hs_obs.Metrics

let c_events = Metrics.counter "online.events"
let c_arrivals = Metrics.counter "online.arrivals"
let c_departures = Metrics.counter "online.departures"
let c_drains = Metrics.counter "online.drains"
let c_resolves = Metrics.counter "online.resolves"
let c_blocked = Metrics.counter "online.resolves.budget_blocked"
let c_migrated = Metrics.counter "online.migrated_volume"
let c_forced = Metrics.counter "online.forced_volume"

(* Wall milliseconds per event, on the shared service ladder.  Like the
   service.phase.* histograms this is intentionally nondeterministic —
   everything else the replay emits is byte-identical across runs. *)
let h_event_ms = Metrics.histogram ~buckets:Metrics.ms_buckets "online.event_ms"

type step = {
  event_id : int;
  event : Trace.event;
  live : int;
  active : int;
  makespan : int;
  t_lp : int;
  candidate : int;
  resolve_admitted : bool;
  adopted : bool;
  migrated : int;
  forced : int;
  migrated_total : int;
  forced_total : int;
  arrived_total : int;
  move_levels : int list;
  ratio : Q.t option;
  verdict : Hs_check.Verdict.t option;
}

type summary = {
  events : int;
  arrivals : int;
  departures : int;
  drains : int;
  resolves : int;
  adoptions : int;
  budget_blocked : int;
  arrived_volume : int;
  migrated_volume : int;
  forced_volume : int;
  final_makespan : int;
  max_ratio : Q.t option;
  mean_ratio : Q.t option;
  certified : int;
  check_failures : int;
}

type outcome = { steps : step list; summary : summary }

(* ---- session state ---------------------------------------------------- *)

type state = {
  lam : Laminar.t;
  beta : Q.t option;
  check : bool;
  lp : bool;
  active : bool array;
  seen : (int, unit) Hashtbl.t;
  mutable live : (int * Ptime.t array) list;  (* arrival order *)
  assign : (int, int list) Hashtbl.t;  (* job id → members of its set *)
  mutable arrived : int;
  mutable migrated : int;
  mutable forced : int;
  mutable events : int;
  mutable arrivals : int;
  mutable departures : int;
  mutable drains : int;
  mutable resolves : int;
  mutable adoptions : int;
  mutable blocked : int;
  mutable final_makespan : int;
  mutable max_ratio : Q.t option;
  mutable ratio_sum : Q.t;
  mutable ratio_count : int;
  mutable certified : int;
  mutable check_failures : int;
}

let create ?beta ?(check = false) ?(lp = false) lam =
  let missing = ref None in
  for i = Laminar.m lam - 1 downto 0 do
    if Laminar.singleton lam i = None then missing := Some i
  done;
  match !missing with
  | Some i ->
      Error
        (Printf.sprintf
           "machine %d has no singleton set (online sessions need a \
            singleton-complete family)" i)
  | None ->
      Ok
        {
          lam;
          beta;
          check;
          lp;
          active = Array.make (Laminar.m lam) true;
          seen = Hashtbl.create 64;
          live = [];
          assign = Hashtbl.create 64;
          arrived = 0;
          migrated = 0;
          forced = 0;
          events = 0;
          arrivals = 0;
          departures = 0;
          drains = 0;
          resolves = 0;
          adoptions = 0;
          blocked = 0;
          final_makespan = 0;
          max_ratio = None;
          ratio_sum = Q.zero;
          ratio_count = 0;
          certified = 0;
          check_failures = 0;
        }

let summary st =
  {
    events = st.events;
    arrivals = st.arrivals;
    departures = st.departures;
    drains = st.drains;
    resolves = st.resolves;
    adoptions = st.adoptions;
    budget_blocked = st.blocked;
    arrived_volume = st.arrived;
    migrated_volume = st.migrated;
    forced_volume = st.forced;
    final_makespan = st.final_makespan;
    max_ratio = st.max_ratio;
    mean_ratio =
      (if st.ratio_count = 0 then None
       else Some (Q.div_int st.ratio_sum st.ratio_count));
    certified = st.certified;
    check_failures = st.check_failures;
  }

(* ---- dynamic validation (the incremental twin of Trace.make) ---------- *)

let admissible lam active row =
  let ok = ref false in
  for s = 0 to Laminar.size lam - 1 do
    if
      Ptime.is_fin row.(s)
      && Array.exists (fun i -> active.(i)) (Laminar.members lam s)
    then ok := true
  done;
  !ok

let validate st (id, ev) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if id < 0 then err "event id %d is negative" id
  else if Hashtbl.mem st.seen id then err "duplicate event id %d" id
  else
    match ev with
    | Trace.Arrive { ptimes } ->
        let nsets = Laminar.size st.lam in
        if Array.length ptimes <> nsets then
          err "event %d: arrival row has %d entries, expected %d" id
            (Array.length ptimes) nsets
        else begin
          let bad = ref None in
          for s = 0 to nsets - 1 do
            match Laminar.parent st.lam s with
            | Some p when not (Ptime.leq ptimes.(s) ptimes.(p)) ->
                if !bad = None then bad := Some (s, p)
            | _ -> ()
          done;
          match !bad with
          | Some (s, p) ->
              err "event %d: arrival row is not monotone (set %d > parent %d)"
                id s p
          | None ->
              if not (admissible st.lam st.active ptimes) then
                err
                  "event %d: arriving job has no admissible mask on the \
                   active machines" id
              else Ok ()
        end
    | Trace.Depart { job } ->
        if List.mem_assoc job st.live then Ok ()
        else err "event %d: departure of job %d which is not live" id job
    | Trace.Drain { machine } ->
        if machine < 0 || machine >= Laminar.m st.lam then
          err "event %d: drain of machine %d out of range" id machine
        else if not st.active.(machine) then
          err "event %d: machine %d already drained" id machine
        else begin
          let survivors =
            Array.to_list st.active
            |> List.filteri (fun i a -> a && i <> machine)
            |> List.length
          in
          if survivors = 0 then
            err "event %d: draining machine %d leaves no machine in service" id
              machine
          else begin
            let after = Array.copy st.active in
            after.(machine) <- false;
            let stranded =
              List.find_opt
                (fun (_, row) -> not (admissible st.lam after row))
                st.live
            in
            match stranded with
            | Some (job, _) ->
                err
                  "event %d: draining machine %d leaves job %d without an \
                   admissible mask" id machine job
            | None -> Ok ()
          end
        end

(* ---- per-step computation --------------------------------------------- *)

(* Theorem IV.3 horizon of a partial placement, used by the greedy
   passes before the assignment array is complete. *)
let partial_horizon inst placed =
  let lam = Instance.laminar inst in
  let best = ref 0 in
  Array.iteri
    (fun k -> function
      | None -> ()
      | Some s ->
          let p = Ptime.value_exn (Instance.ptime inst ~job:k ~set:s) in
          if p > !best then best := p)
    placed;
  for alpha = 0 to Laminar.size lam - 1 do
    let vol = ref 0 in
    Array.iteri
      (fun k -> function
        | None -> ()
        | Some s ->
            if Laminar.subset lam s alpha then
              vol := !vol + Ptime.value_exn (Instance.ptime inst ~job:k ~set:s))
      placed;
    let card = Laminar.card lam alpha in
    let need = (!vol + card - 1) / card in
    if need > !best then best := need
  done;
  !best

(* Greedy placement: the admissible set minimising the resulting
   horizon, ties to the smallest cardinality, then the smallest id. *)
let place_greedy inst placed k =
  let lam = Instance.laminar inst in
  let best = ref None in
  for s = 0 to Laminar.size lam - 1 do
    if Ptime.is_fin (Instance.ptime inst ~job:k ~set:s) then begin
      placed.(k) <- Some s;
      let key = (partial_horizon inst placed, Laminar.card lam s, s) in
      match !best with
      | Some (k0, _) when k0 <= key -> ()
      | _ -> best := Some (key, s)
    end
  done;
  match !best with
  | Some (_, s) -> placed.(k) <- Some s
  | None -> assert false (* admissibility was validated *)

(* The artifacts a deferred certification needs; pure data so the CLI
   can fan the per-step checks out over domains. *)
type cert_input = {
  ci_inst : Instance.t;
  ci_assign : Assignment.t;
  ci_makespan : int;
  ci_t_lp : int;
  ci_admitted : bool;
  ci_migrated : Q.t;
  ci_allowed : Q.t option;
}

let certify ~lp ci =
  match
    Hs_core.Hierarchical.schedule ci.ci_inst ci.ci_assign ~tmax:ci.ci_makespan
  with
  | Error e ->
      V.make ~subject:"online-step"
        [
          V.fail ~invariant:"online.schedule"
            "scheduler failed at the certified horizon %d: %s" ci.ci_makespan e;
        ]
  | Ok sched ->
      Hs_check.Certify.online_step ~lp ci.ci_inst ci.ci_assign sched
        ~makespan:ci.ci_makespan ~t_lp:ci.ci_t_lp
        ~resolve_admitted:ci.ci_admitted ~migrated:ci.ci_migrated
        ~allowed:ci.ci_allowed

let allowance st =
  Option.map (fun b -> Q.mul b (Q.of_int st.arrived)) st.beta

let step_core st (id, ev) =
  match validate st (id, ev) with
  | Error e -> Error e
  | Ok () ->
      let t0 = Unix.gettimeofday () in
      Hashtbl.add st.seen id ();
      st.events <- st.events + 1;
      Metrics.incr c_events;
      (* Structural update. *)
      let drained = ref false in
      let fresh = ref None in
      (match ev with
      | Trace.Arrive { ptimes } ->
          st.arrivals <- st.arrivals + 1;
          Metrics.incr c_arrivals;
          let min_p = Array.fold_left Ptime.min Ptime.Inf ptimes in
          st.arrived <- st.arrived + Ptime.value_exn min_p;
          st.live <- st.live @ [ (id, ptimes) ];
          fresh := Some id
      | Trace.Depart { job } ->
          st.departures <- st.departures + 1;
          Metrics.incr c_departures;
          st.live <- List.remove_assoc job st.live;
          Hashtbl.remove st.assign job
      | Trace.Drain { machine } ->
          st.drains <- st.drains + 1;
          Metrics.incr c_drains;
          st.active.(machine) <- false;
          drained := true);
      let inst, idx = Trace.active_instance st.lam ~active:st.active ~jobs:st.live in
      let lam' = Instance.laminar inst in
      let n = Instance.njobs inst in
      (* Re-seat every live job on the current restricted family: a kept
         set keeps its (possibly shrunk) intersection when still
         admissible; stranded jobs and the fresh arrival go through the
         greedy pass, in arrival order.  Between drains the restriction
         is stable, so re-seating is the identity. *)
      let placed = Array.make n None in
      let forced_step = ref 0 in
      let forced_jobs = ref [] in
      let stranded = ref [] in
      Array.iteri
        (fun k (jid, _) ->
          if Some jid = !fresh then stranded := k :: !stranded
          else
            let mem = Hashtbl.find st.assign jid in
            let mem' = List.filter (fun i -> st.active.(i)) mem in
            let kept =
              if mem' = [] then None
              else
                match Laminar.find lam' mem' with
                | Some s when Ptime.is_fin (Instance.ptime inst ~job:k ~set:s)
                  ->
                    Some s
                | _ -> None
            in
            match kept with
            | Some s ->
                placed.(k) <- Some s;
                if mem' <> mem then forced_jobs := k :: !forced_jobs
            | None ->
                (* only a drain can strand an already-placed job *)
                assert !drained;
                stranded := k :: !stranded;
                forced_jobs := k :: !forced_jobs)
        idx;
      List.iter (place_greedy inst placed) (List.sort compare !stranded);
      let a = Array.map Option.get placed in
      List.iter
        (fun k ->
          forced_step :=
            !forced_step + Ptime.value_exn (Instance.ptime inst ~job:k ~set:a.(k)))
        !forced_jobs;
      st.forced <- st.forced + !forced_step;
      Metrics.add c_forced !forced_step;
      let cur_makespan = if n = 0 then 0 else Assignment.min_makespan inst a in
      (* One fresh Theorem V.2 re-solve of the active instance. *)
      let solve_result =
        if n = 0 then Ok (cur_makespan, 0, 0, a, true, false, 0)
        else begin
          st.resolves <- st.resolves + 1;
          Metrics.incr c_resolves;
          match Hs_core.Approx.Exact.solve_checked inst with
          | Error e ->
              Error
                (Printf.sprintf "event %d: re-solve failed: %s" id
                   (Hs_core.Hs_error.to_string e))
          | Ok o ->
              let closed_lam = Instance.laminar o.Hs_core.Approx.Exact.instance in
              let cand =
                Array.map
                  (fun cs ->
                    match o.Hs_core.Approx.Exact.translate cs with
                    | Some s -> s
                    | None -> (
                        match
                          Laminar.find lam'
                            (Array.to_list (Laminar.members closed_lam cs))
                        with
                        | Some s -> s
                        | None -> assert false))
                  o.Hs_core.Approx.Exact.assignment
              in
              let cand_makespan = Assignment.min_makespan inst cand in
              let move_vol = ref 0 in
              Array.iteri
                (fun k s ->
                  if s <> a.(k) then
                    move_vol :=
                      !move_vol
                      + Ptime.value_exn (Instance.ptime inst ~job:k ~set:s))
                cand;
              let admitted =
                match st.beta with
                | None -> true
                | Some b ->
                    Q.leq
                      (Q.of_int (st.migrated + !move_vol))
                      (Q.mul b (Q.of_int st.arrived))
              in
              let improves = cand_makespan < cur_makespan in
              if admitted && improves then
                Ok
                  ( cand_makespan,
                    o.Hs_core.Approx.Exact.t_lp,
                    cand_makespan,
                    cand,
                    true,
                    true,
                    !move_vol )
              else begin
                if improves then begin
                  st.blocked <- st.blocked + 1;
                  Metrics.incr c_blocked
                end;
                Ok
                  ( cur_makespan,
                    o.Hs_core.Approx.Exact.t_lp,
                    cand_makespan,
                    a,
                    admitted,
                    false,
                    0 )
              end
        end
      in
      match solve_result with
      | Error e -> Error e
      | Ok (makespan, t_lp, candidate, final_a, admitted, adopted, moved) ->
          if adopted then begin
            st.adoptions <- st.adoptions + 1;
            st.migrated <- st.migrated + moved;
            Metrics.add c_migrated moved
          end;
          (* Commit: the assignment table holds member lists, which
             survive the next restriction change.  Each job that ends the
             step on a different member set than it started migrates once;
             the move's level is the height of the smallest base-family
             set spanning both homes (the latency model of [hsched
             simulate], so [--latencies] charges online moves the same
             way). *)
          let move_levels = ref [] in
          Array.iteri
            (fun k (jid, _) ->
              let after = Array.to_list (Laminar.members lam' final_a.(k)) in
              (match Hashtbl.find_opt st.assign jid with
              | Some before when before <> after -> (
                  match
                    Laminar.minimal_superset st.lam
                      (List.sort_uniq compare (before @ after))
                  with
                  | Some span -> move_levels := Laminar.height st.lam span :: !move_levels
                  | None -> ())
              | _ -> ());
              Hashtbl.replace st.assign jid after)
            idx;
          let move_levels = List.sort compare !move_levels in
          st.final_makespan <- makespan;
          let ratio =
            if t_lp > 0 then Some (Q.of_ints makespan t_lp) else None
          in
          (match ratio with
          | Some r ->
              st.ratio_sum <- Q.add st.ratio_sum r;
              st.ratio_count <- st.ratio_count + 1;
              st.max_ratio <-
                Some
                  (match st.max_ratio with
                  | None -> r
                  | Some m -> Q.max m r)
          | None -> ());
          let step =
            {
              event_id = id;
              event = ev;
              live = n;
              active =
                Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
                  st.active;
              makespan;
              t_lp;
              candidate;
              resolve_admitted = admitted;
              adopted;
              migrated = moved;
              forced = !forced_step;
              migrated_total = st.migrated;
              forced_total = st.forced;
              arrived_total = st.arrived;
              move_levels;
              ratio;
              verdict = None;
            }
          in
          let ci =
            {
              ci_inst = inst;
              ci_assign = final_a;
              ci_makespan = makespan;
              ci_t_lp = t_lp;
              ci_admitted = admitted;
              ci_migrated = Q.of_int st.migrated;
              ci_allowed = allowance st;
            }
          in
          Metrics.observe h_event_ms
            (int_of_float (((Unix.gettimeofday () -. t0) *. 1000.0) +. 0.5));
          Ok (step, ci)

module Session = struct
  type t = state

  let create = create

  let step st ev =
    match step_core st ev with
    | Error e -> Error e
    | Ok (step, ci) ->
        if not st.check then Ok step
        else begin
          let v = certify ~lp:st.lp ci in
          if V.ok v then st.certified <- st.certified + 1
          else st.check_failures <- st.check_failures + 1;
          Ok { step with verdict = Some v }
        end

  let summary = summary
end

let run ?beta ?(check = false) ?(lp = false) ?(jobs = 1) trace =
  match create ?beta ~check:false ~lp (Trace.laminar trace) with
  | Error e -> Error e
  | Ok st -> (
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | ev :: rest -> (
            match step_core st ev with
            | Error e -> Error e
            | Ok pair -> go (pair :: acc) rest)
      in
      match go [] (Trace.events trace) with
      | Error e -> Error e
      | Ok pairs ->
          let steps =
            if not check then List.map fst pairs
            else begin
              let jobs = Hs_exec.resolve_jobs jobs in
              let verdicts =
                Hs_exec.parmap ~jobs (certify ~lp) (List.map snd pairs)
              in
              List.map2
                (fun (step, _) v ->
                  if V.ok v then st.certified <- st.certified + 1
                  else st.check_failures <- st.check_failures + 1;
                  { step with verdict = Some v })
                pairs verdicts
            end
          in
          Ok { steps; summary = summary st })

let vs_baseline outcome ~baseline =
  let rec go max_r sum count a b =
    match (a, b) with
    | [], _ | _, [] ->
        if count = 0 then (None, None)
        else (Some max_r, Some (Q.div_int sum count))
    | sa :: ra, sb :: rb ->
        if sb.makespan > 0 then
          let r = Q.of_ints sa.makespan sb.makespan in
          go
            (if count = 0 then r else Q.max max_r r)
            (Q.add sum r) (count + 1) ra rb
        else go max_r sum count ra rb
  in
  go Q.zero Q.zero 0 outcome.steps baseline.steps

(* ---- rendering -------------------------------------------------------- *)

let decimal q =
  let scaled = Q.floor_int (Q.mul_int q 1000) in
  Printf.sprintf "%d.%03d" (scaled / 1000) (scaled mod 1000)

let event_cell id = function
  | Trace.Arrive _ -> Printf.sprintf "%d arrive" id
  | Trace.Depart { job } -> Printf.sprintf "%d depart %d" id job
  | Trace.Drain { machine } -> Printf.sprintf "%d drain %d" id machine

let kind_name = function
  | Trace.Arrive _ -> "arrive"
  | Trace.Depart _ -> "depart"
  | Trace.Drain _ -> "drain"

let resolve_cell (s : step) =
  if s.live = 0 then "-"
  else if s.adopted then "adopted"
  else if s.candidate < s.makespan then "budget"  (* improvement refused *)
  else "kept"

let check_cell (s : step) =
  match s.verdict with
  | None -> ""
  | Some v -> if V.ok v then "  ok" else "  FAIL"

let render_table buf (steps : step list) =
  let has_check = List.exists (fun s -> s.verdict <> None) steps in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %5s %9s %5s %8s %-8s %6s %6s%s\n" "event" "live"
       "makespan" "T*" "ratio" "resolve" "moved" "forced"
       (if has_check then "  check" else ""));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-16s %5d %9d %5d %8s %-8s %6d %6d%s\n"
           (event_cell s.event_id s.event)
           s.live s.makespan s.t_lp
           (match s.ratio with None -> "-" | Some r -> decimal r)
           (resolve_cell s) s.migrated s.forced (check_cell s)))
    steps

let render_summary buf ?beta (s : summary) =
  let q_opt = function None -> "-" | Some r -> decimal r in
  Buffer.add_string buf
    (Printf.sprintf "events %d (arrivals %d, departures %d, drains %d)\n"
       s.events s.arrivals s.departures s.drains);
  Buffer.add_string buf
    (Printf.sprintf "re-solves %d: adopted %d, budget-blocked %d%s\n"
       s.resolves s.adoptions s.budget_blocked
       (match beta with
       | None -> " (unlimited budget)"
       | Some b -> Printf.sprintf " (beta = %s)" (Q.to_string b)));
  Buffer.add_string buf
    (Printf.sprintf "volume: arrived %d, migrated %d, drain-forced %d\n"
       s.arrived_volume s.migrated_volume s.forced_volume);
  Buffer.add_string buf (Printf.sprintf "final makespan %d\n" s.final_makespan);
  Buffer.add_string buf
    (Printf.sprintf "ratio vs fresh T*: max %s, mean %s\n" (q_opt s.max_ratio)
       (q_opt s.mean_ratio));
  if s.certified + s.check_failures > 0 then
    Buffer.add_string buf
      (Printf.sprintf "certified %d/%d steps%s\n" s.certified s.events
         (if s.check_failures > 0 then
            Printf.sprintf " (%d FAILED)" s.check_failures
          else ""))

(* ---- JSON ------------------------------------------------------------- *)

let q_json = function None -> Json.Null | Some r -> Json.String (Q.to_string r)

let step_to_json (s : step) =
  let specific =
    match s.event with
    | Trace.Arrive _ -> []
    | Trace.Depart { job } -> [ ("job", Json.Int job) ]
    | Trace.Drain { machine } -> [ ("machine", Json.Int machine) ]
  in
  Json.Obj
    ([ ("event", Json.Int s.event_id); ("kind", Json.String (kind_name s.event)) ]
    @ specific
    @ [
        ("live", Json.Int s.live);
        ("active", Json.Int s.active);
        ("makespan", Json.Int s.makespan);
        ("t_lp", Json.Int s.t_lp);
        ("candidate", Json.Int s.candidate);
        ("resolve_admitted", Json.Bool s.resolve_admitted);
        ("adopted", Json.Bool s.adopted);
        ("migrated", Json.Int s.migrated);
        ("forced", Json.Int s.forced);
        ("migrated_total", Json.Int s.migrated_total);
        ("forced_total", Json.Int s.forced_total);
        ("arrived_total", Json.Int s.arrived_total);
        ("move_levels", Json.List (List.map (fun l -> Json.Int l) s.move_levels));
        ("ratio", q_json s.ratio);
      ]
    @
    match s.verdict with
    | None -> []
    | Some v -> (
        [ ("check_ok", Json.Bool (V.ok v)) ]
        @
        match V.first_failure v with
        | None -> []
        | Some item ->
            [
              ("check_failure", Json.String (item.V.invariant ^ ": " ^ item.V.detail));
            ]))

let summary_to_json (s : summary) =
  Json.Obj
    [
      ("events", Json.Int s.events);
      ("arrivals", Json.Int s.arrivals);
      ("departures", Json.Int s.departures);
      ("drains", Json.Int s.drains);
      ("resolves", Json.Int s.resolves);
      ("adoptions", Json.Int s.adoptions);
      ("budget_blocked", Json.Int s.budget_blocked);
      ("arrived_volume", Json.Int s.arrived_volume);
      ("migrated_volume", Json.Int s.migrated_volume);
      ("forced_volume", Json.Int s.forced_volume);
      ("final_makespan", Json.Int s.final_makespan);
      ("max_ratio", q_json s.max_ratio);
      ("mean_ratio", q_json s.mean_ratio);
      ("certified", Json.Int s.certified);
      ("check_failures", Json.Int s.check_failures);
    ]

let outcome_to_json o =
  Json.Obj
    [
      ("schema", Json.String "hsched.online/1");
      ("steps", Json.List (List.map step_to_json o.steps));
      ("summary", summary_to_json o.summary);
    ]

(* Wire decoding, the streaming client's half: enough of a step comes
   back to re-render tables and summaries byte-identically.  The arrival
   row and the verdict's item list are deliberately not carried — the
   reconstructed verdict keeps only the pass/fail outcome and the first
   failure's diagnostic. *)

let int_member k j =
  match Json.member k j with Some (Json.Int v) -> Some v | _ -> None

let bool_member k j =
  match Json.member k j with Some (Json.Bool v) -> Some v | _ -> None

let string_member k j =
  match Json.member k j with Some (Json.String v) -> Some v | _ -> None

let q_member k j =
  match Json.member k j with
  | Some (Json.String s) -> (
      match Q.of_string s with q -> Some q | exception _ -> None)
  | _ -> None

let step_of_json j =
  let req k = match int_member k j with Some v -> Ok v | None -> Error k in
  let reqb k = match bool_member k j with Some v -> Ok v | None -> Error k in
  let ( let* ) r f = match r with Error k -> Error ("step has no " ^ k) | Ok v -> f v in
  let* event_id = req "event" in
  let* kind = match string_member "kind" j with Some k -> Ok k | None -> Error "kind" in
  let* event =
    match kind with
    | "arrive" -> Ok (Trace.Arrive { ptimes = [||] })
    | "depart" ->
        let* job = req "job" in
        Ok (Trace.Depart { job })
    | "drain" ->
        let* machine = req "machine" in
        Ok (Trace.Drain { machine })
    | k -> Error (Printf.sprintf "kind (unknown %S)" k)
  in
  let* live = req "live" in
  let* active = req "active" in
  let* makespan = req "makespan" in
  let* t_lp = req "t_lp" in
  let* candidate = req "candidate" in
  let* resolve_admitted = reqb "resolve_admitted" in
  let* adopted = reqb "adopted" in
  let* migrated = req "migrated" in
  let* forced = req "forced" in
  let* migrated_total = req "migrated_total" in
  let* forced_total = req "forced_total" in
  let* arrived_total = req "arrived_total" in
  let move_levels =
    match Json.member "move_levels" j with
    | Some (Json.List l) ->
        List.filter_map (function Json.Int v -> Some v | _ -> None) l
    | _ -> []
  in
  let verdict =
    match bool_member "check_ok" j with
    | None -> None
    | Some true ->
        Some (V.make ~subject:"online-step" [ V.pass ~invariant:"online.step" "certified" ])
    | Some false ->
        let detail =
          Option.value ~default:"certification failed"
            (string_member "check_failure" j)
        in
        Some (V.make ~subject:"online-step" [ V.fail ~invariant:"online.step" "%s" detail ])
  in
  Ok
    {
      event_id;
      event;
      live;
      active;
      makespan;
      t_lp;
      candidate;
      resolve_admitted;
      adopted;
      migrated;
      forced;
      migrated_total;
      forced_total;
      arrived_total;
      move_levels;
      ratio = q_member "ratio" j;
      verdict;
    }

let summary_of_json j =
  let req k = match int_member k j with Some v -> Ok v | None -> Error k in
  let ( let* ) r f =
    match r with Error k -> Error ("summary has no " ^ k) | Ok v -> f v
  in
  let* events = req "events" in
  let* arrivals = req "arrivals" in
  let* departures = req "departures" in
  let* drains = req "drains" in
  let* resolves = req "resolves" in
  let* adoptions = req "adoptions" in
  let* budget_blocked = req "budget_blocked" in
  let* arrived_volume = req "arrived_volume" in
  let* migrated_volume = req "migrated_volume" in
  let* forced_volume = req "forced_volume" in
  let* final_makespan = req "final_makespan" in
  let* certified = req "certified" in
  let* check_failures = req "check_failures" in
  Ok
    {
      events;
      arrivals;
      departures;
      drains;
      resolves;
      adoptions;
      budget_blocked;
      arrived_volume;
      migrated_volume;
      forced_volume;
      final_makespan;
      max_ratio = q_member "max_ratio" j;
      mean_ratio = q_member "mean_ratio" j;
      certified;
      check_failures;
    }

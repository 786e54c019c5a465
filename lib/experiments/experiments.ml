(** The evaluation suite (DESIGN.md §4).

    The paper is theory-only, so each experiment here validates one of
    its formal claims empirically; EXPERIMENTS.md records the outcomes.
    Every experiment is deterministic (seeds are fixed and printed) and
    prints a plain-text table — `dune exec bench/main.exe` regenerates
    all of them.

    [quick] runs smaller sweeps (used by the CI-ish default); the full
    sizes stay laptop-scale because the exact-arithmetic LP and the
    branch-and-bound are exponential-ish in nature.

    [jobs] shards the per-trial solves across an {!Hs_exec} domain pool
    (DESIGN.md §10).  Each experiment builds its work-item list
    identically at any job count — one item per seeded trial, every item
    carrying its own [Rng] — maps it through {!Hs_exec.parmap} (results
    return in submission order) and folds the ordered results exactly as
    the old sequential loops did, so the printed tables are
    byte-identical at any [jobs].  The wall-clock experiments F3/A3 and
    the single-instance F5 stay sequential: sharing cores would distort
    the very times they measure. *)

open Hs_model
open Hs_core
open Hs_workloads
module Q = Hs_numeric.Q
module L = Hs_laminar.Laminar
module T = Hs_laminar.Topology

let base_seed = 20170529 (* IPDPS'17 *)

(* One item per seeded trial through the domain pool. *)
let sweep ~jobs f items = Hs_exec.parmap ~jobs f items

(* Replay the original `ref []`-accumulator order: trials were
   {e prepended} in ascending-k order, so folds ran over descending k. *)
let rev_successes results = List.rev (List.filter_map Fun.id results)

(* Slice the ordered result list back into per-cell groups of [width]. *)
let slices results ~width =
  let arr = Array.of_list results in
  fun cell_idx -> List.init width (fun k -> arr.((cell_idx * width) + k))

(* Families used across experiments. *)
let family_instances ~rng ~n ~m = function
  | `Semi -> Generators.hierarchical rng ~lam:(T.semi_partitioned m) ~n ~base:(1, 9) ~heterogeneity:1.6 ~overhead:0.25 ()
  | `Clustered ->
      let clusters = if m mod 2 = 0 then 2 else 1 in
      Generators.hierarchical rng ~lam:(T.clustered ~m ~clusters) ~n ~base:(1, 9) ~heterogeneity:1.6 ~overhead:0.25 ()
  | `Three_level ->
      Generators.hierarchical rng
        ~lam:(T.balanced [ 2; (m + 1) / 2 ])
        ~n ~base:(1, 9) ~heterogeneity:1.6 ~overhead:0.25 ()
  | `Random ->
      Generators.hierarchical rng ~lam:(Generators.random_laminar rng ~m ()) ~n ~base:(1, 9)
        ~heterogeneity:1.6 ~overhead:0.25 ()

let family_name = function
  | `Semi -> "semi-partitioned"
  | `Clustered -> "clustered"
  | `Three_level -> "3-level"
  | `Random -> "random-laminar"

let all_families = [ `Semi; `Clustered; `Three_level; `Random ]

(** {b T1} — Theorem V.2: the measured approximation ratio of the LP
    rounding pipeline against the branch-and-bound optimum. *)
let t1 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create ~title:"T1: approximation ratio of the 2-approximation (Theorem V.2)"
      ~header:[ "family"; "n"; "m"; "inst"; "mean ALG/OPT"; "max ALG/OPT"; "max ALG/LP"; "bound" ]
  in
  let trials = if quick then 3 else 8 in
  let sizes = if quick then [ (5, 3) ] else [ (5, 3); (8, 4); (10, 4) ] in
  let cells =
    List.concat
      (List.mapi
         (fun fam_idx family -> List.map (fun (n, m) -> (fam_idx, family, n, m)) sizes)
         all_families)
  in
  let items = List.concat_map (fun cell -> List.init trials (fun k -> (cell, k))) cells in
  let results =
    sweep ~jobs
      (fun ((fam_idx, family, n, m), k) ->
        let rng = Rng.create (base_seed + (77777 * fam_idx) + (1000 * k) + n + (17 * m)) in
        let inst = family_instances ~rng ~n ~m family in
        match Approx.Exact.solve inst with
        | Error _ -> None
        | Ok o -> (
            match
              Exact.optimal ~initial:(Array.map (fun _ -> 0) o.assignment, o.makespan) inst
            with
            | Some (_, opt, stats) when stats.proven && opt > 0 ->
                Some
                  ( float_of_int o.makespan /. float_of_int opt,
                    float_of_int o.makespan /. float_of_int o.t_lp )
            | _ -> None))
      items
  in
  let slice = slices results ~width:trials in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let mx l = List.fold_left Float.max 0. l in
  List.iteri
    (fun ci (_, family, n, m) ->
      let succ = rev_successes (slice ci) in
      let ratios = List.map fst succ and lp_ratios = List.map snd succ in
      if ratios <> [] then
        Table.add_row tbl
          [
            family_name family;
            Table.cell_int n;
            Table.cell_int m;
            Table.cell_int (List.length ratios);
            Table.cell_float (mean ratios);
            Table.cell_float (mx ratios);
            Table.cell_float (mx lp_ratios);
            "2.000";
          ])
    cells;
  Table.print tbl

(** {b T2} — Theorems III.1 / IV.3: the schedulers turn every feasible
    assignment into a valid schedule of the predicted makespan. *)
let t2 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create ~title:"T2: scheduler validity on random feasible assignments"
      ~header:[ "family"; "instances"; "valid"; "makespan=T"; "max load/T" ]
  in
  let trials = if quick then 50 else 300 in
  let items =
    List.concat_map (fun family -> List.init trials (fun k -> (family, k))) all_families
  in
  let results =
    sweep ~jobs
      (fun (family, k) ->
        let rng = Rng.create (base_seed + k) in
        let m = 2 + Rng.int rng 5 in
        let n = 2 + Rng.int rng 8 in
        let inst = family_instances ~rng ~n ~m family in
        let lam = Instance.laminar inst in
        let a = Array.init n (fun _ -> Rng.int rng (L.size lam)) in
        let t = Assignment.min_makespan inst a in
        match Hierarchical.schedule inst a ~tmax:t with
        | Error _ -> None
        | Ok sched ->
            let util = ref 0.0 in
            for i = 0 to m - 1 do
              let u =
                float_of_int (Schedule.machine_load sched i) /. float_of_int (Stdlib.max 1 t)
              in
              if u > !util then util := u
            done;
            Some (Schedule.is_valid inst a sched, Schedule.makespan sched <= t, !util))
      items
  in
  let slice = slices results ~width:trials in
  List.iteri
    (fun ci family ->
      let valid = ref 0 and tight = ref 0 and worst_util = ref 0.0 in
      List.iter
        (function
          | None -> ()
          | Some (v, tgt, u) ->
              if v then incr valid;
              if tgt then incr tight;
              if u > !worst_util then worst_util := u)
        (slice ci);
      Table.add_row tbl
        [
          family_name family;
          Table.cell_int trials;
          Table.cell_int !valid;
          Table.cell_int !tight;
          Table.cell_float !worst_util;
        ])
    all_families;
  Table.print tbl

(** {b T3} — Proposition III.2: tape-order migrations ≤ m-1 and total
    stops ≤ 2m-2 for Algorithm 1. *)
let t3 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create ~title:"T3: Proposition III.2 migration/preemption bounds (Algorithm 1)"
      ~header:
        [ "m"; "instances"; "max migr"; "bound m-1"; "max stops"; "bound 2m-2" ]
  in
  let trials = if quick then 60 else 400 in
  let ms = if quick then [ 2; 4; 8 ] else [ 2; 3; 4; 6; 8; 12 ] in
  let items = List.concat_map (fun m -> List.init trials (fun k -> (m, k))) ms in
  let results =
    sweep ~jobs
      (fun (m, k) ->
        let rng = Rng.create (base_seed + (31 * k) + m) in
        let n = 2 + Rng.int rng 12 in
        let inst =
          Generators.hierarchical rng ~lam:(T.semi_partitioned m) ~n ~base:(1, 9)
            ~heterogeneity:1.5 ~overhead:0.3 ()
        in
        let lam = Instance.laminar inst in
        let a = Array.init n (fun _ -> Rng.int rng (L.size lam)) in
        let t = Assignment.min_makespan inst a in
        match Semi_partitioned.schedule_stats inst a ~tmax:t with
        | Error _ -> None
        | Ok (_, stats) -> Some (stats.Tape.migrations, Tape.stops stats))
      items
  in
  let slice = slices results ~width:trials in
  List.iteri
    (fun ci m ->
      let max_migr = ref 0 and max_stops = ref 0 and cnt = ref 0 in
      List.iter
        (function
          | None -> ()
          | Some (migr, stops) ->
              incr cnt;
              if migr > !max_migr then max_migr := migr;
              if stops > !max_stops then max_stops := stops)
        (slice ci);
      Table.add_row tbl
        [
          Table.cell_int m;
          Table.cell_int !cnt;
          Table.cell_int !max_migr;
          Table.cell_int (m - 1);
          Table.cell_int !max_stops;
          Table.cell_int ((2 * m) - 2);
        ])
    ms;
  Table.print tbl

(** {b F1} — Example V.1: the integral gap between the reduced unrelated
    instance and the hierarchical instance approaches 2. *)
let f1 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create
      ~title:"F1: Example V.1 integral gap, unrelated / hierarchical (-> 2)"
      ~header:[ "n"; "m"; "hier OPT"; "unrel OPT"; "gap"; "(2n-3)/(n-1)" ]
  in
  let ns = if quick then [ 3; 6; 12 ] else [ 3; 4; 6; 8; 12; 16; 24; 40 ] in
  let rows =
    sweep ~jobs
      (fun n ->
        let inst = Families.example_v1 n in
        (* Closed forms, verified by branch and bound on the small sizes. *)
        let hier = Families.example_v1_hierarchical_opt n in
        let unrel = Families.example_v1_unrelated_opt n in
        let hier =
          if n <= 9 then
            match Exact.optimal inst with Some (_, o, _) -> o | None -> hier
          else hier
        in
        let unrel =
          if n <= 9 then
            match Hs_baselines.Unrelated_reduction.optimal_reduced inst with
            | Some o -> o
            | None -> unrel
          else unrel
        in
        [
          Table.cell_int n;
          Table.cell_int (n - 1);
          Table.cell_int hier;
          Table.cell_int unrel;
          Table.cell_float (float_of_int unrel /. float_of_int hier);
          Table.cell_float (float_of_int ((2 * n) - 3) /. float_of_int (n - 1));
        ])
      ns
  in
  List.iter (Table.add_row tbl) rows;
  Table.print tbl

(** {b F2} — The capacity loss of pure partitioning: optimal makespans of
    partitioned vs semi-partitioned scheduling vs the global preemptive
    bound, as the migratory load grows.  Each machine carries one pinned
    job of random length (uneven steps, Example V.1 style: pinned jobs
    have no other finite mask) and a varying number of flexible jobs
    that may run anywhere, globally at a 20% migration premium.  Pure
    partitioning must stack flexible jobs onto machines whole;
    semi-partitioned scheduling threads them through the idle steps. *)
let f2 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create
      ~title:"F2: partitioned vs semi-partitioned vs global, by flexible load"
      ~header:
        [ "load"; "inst"; "partitioned/LB"; "semi-part OPT/LB"; "2-approx/LB"; "global-only/LB" ]
  in
  let m = 4 in
  let trials = if quick then 3 else 6 in
  let loads = if quick then [ 0.5; 1.25 ] else [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 ] in
  let items = List.concat_map (fun load -> List.init trials (fun k -> (load, k))) loads in
  let results =
    sweep ~jobs
      (fun (load, k) ->
        let rng = Rng.create (base_seed + (97 * k) + int_of_float (load *. 100.)) in
        let nflex = Stdlib.max 1 (int_of_float (load *. float_of_int m)) in
        let n = m + nflex in
        let local =
          Array.init n (fun j ->
              if j < m then begin
                (* pinned job on machine j only *)
                let p = 2 + Rng.int rng 8 in
                Array.init m (fun i -> if i = j then Ptime.fin p else Ptime.Inf)
              end
              else begin
                let p = 2 + Rng.int rng 5 in
                Array.make m (Ptime.fin p)
              end)
        in
        let global =
          Array.mapi
            (fun j row ->
              if j < m then Ptime.Inf
              else
                let w =
                  Array.fold_left
                    (fun acc pt ->
                      match pt with Ptime.Fin v -> Stdlib.max acc v | Ptime.Inf -> acc)
                    0 row
                in
                Ptime.fin (int_of_float (ceil (float_of_int w *. 1.2))))
            local
        in
        let semi = Instance.semi_partitioned ~global ~local in
        let unrel = Instance.unrelated ~m local in
        match (Exact.optimal semi, Exact.optimal unrel, Approx.Exact.solve semi) with
        | Some (_, semi_opt, s1), Some (_, part_opt, s2), Ok o when s1.proven && s2.proven ->
            (* "global-only" policy: every flexible job migrates freely
               (paying the premium), pinned jobs stay put. *)
            let glob =
              let lam = Instance.laminar semi in
              let full = Option.get (L.full_set lam) in
              let a =
                Array.init n (fun j ->
                    if j < m then Option.get (L.singleton lam j) else full)
              in
              Assignment.min_makespan semi a
            in
            let lb = float_of_int o.t_lp in
            Some
              ( float_of_int part_opt /. lb,
                float_of_int semi_opt /. lb,
                float_of_int o.makespan /. lb,
                float_of_int glob /. lb )
        | _ -> None)
      items
  in
  let slice = slices results ~width:trials in
  List.iteri
    (fun ci load ->
      let acc_part = ref 0. and acc_semi = ref 0. and acc_alg = ref 0. and acc_glob = ref 0. in
      let cnt = ref 0 in
      List.iter
        (function
          | None -> ()
          | Some (part, semi, alg, glob) ->
              acc_part := !acc_part +. part;
              acc_semi := !acc_semi +. semi;
              acc_alg := !acc_alg +. alg;
              acc_glob := !acc_glob +. glob;
              incr cnt)
        (slice ci);
      if !cnt > 0 then begin
        let f x = Table.cell_float (x /. float_of_int !cnt) in
        Table.add_row tbl
          [
            Table.cell_float ~digits:2 load;
            Table.cell_int !cnt;
            f !acc_part;
            f !acc_semi;
            f !acc_alg;
            f !acc_glob;
          ]
      end)
    loads;
  Table.print tbl

(** {b F3} — scalability: wall time of the full pipeline, exact-rational
    vs floating-point LP.  Stays sequential at any [jobs]: it measures
    wall time, which a shared pool would distort. *)
let f3 ?(quick = false) () =
  let tbl =
    Table.create ~title:"F3: pipeline wall time, exact-Q vs float LP (seconds)"
      ~header:[ "n"; "m"; "sets"; "exact (s)"; "float (s)"; "exact/float" ]
  in
  let sizes = if quick then [ (6, 4); (12, 4) ] else [ (6, 4); (12, 4); (24, 6); (40, 6) ] in
  List.iter
    (fun (n, m) ->
      let rng = Rng.create (base_seed + n + m) in
      let inst =
        Generators.hierarchical rng ~lam:(T.semi_partitioned m) ~n ~base:(2, 20)
          ~heterogeneity:1.8 ~overhead:0.2 ()
      in
      let time f =
        let t0 = Sys.time () in
        ignore (f ());
        Sys.time () -. t0
      in
      let te = time (fun () -> Approx.Exact.solve inst) in
      let tf = time (fun () -> Approx.Fast.solve inst) in
      Table.add_row tbl
        [
          Table.cell_int n;
          Table.cell_int m;
          Table.cell_int (L.size (Instance.laminar inst));
          Table.cell_float ~digits:4 te;
          Table.cell_float ~digits:4 tf;
          Table.cell_float (te /. Float.max 1e-9 tf);
        ])
    sizes;
  Table.print tbl

(** {b T4} — Theorem VI.1 (memory Model 1): bicriteria factors against
    the (3T, 3B) bound. *)
let t4 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create ~title:"T4: memory Model 1 bicriteria factors (Theorem VI.1: <= 3, 3)"
      ~header:
        [ "n"; "m"; "inst"; "max makespan/T"; "max mem/B"; "bound"; "fallback drops" ]
  in
  let trials = if quick then 4 else 10 in
  let sizes = if quick then [ (1, 3) ] else [ (1, 2); (1, 3); (2, 4) ] in
  let items = List.concat_map (fun sz -> List.init trials (fun k -> (sz, k))) sizes in
  let results =
    sweep ~jobs
      (fun ((nlo, m), k) ->
        let rng = Rng.create (base_seed + (11 * k) + m) in
        let inst = Generators.semi_partitioned_load rng ~m ~load:0.5 ~pmin:1 ~pmax:7 () in
        if Instance.njobs inst >= nlo then begin
          let payload = Generators.model1_payload rng inst ~smax:5 ~slack:1.4 in
          match Memory.solve_model1 inst payload with
          | Error _ -> None
          | Ok r -> Some (r.fallback_drops, r.makespan_factor, r.max_capacity_factor)
        end
        else None)
      items
  in
  let slice = slices results ~width:trials in
  List.iteri
    (fun ci (nlo, m) ->
      let mx_mk = ref Q.zero and mx_mem = ref Q.zero and cnt = ref 0 and fb = ref 0 in
      List.iter
        (function
          | None -> ()
          | Some (drops, mkf, memf) ->
              incr cnt;
              fb := !fb + drops;
              if Q.gt mkf !mx_mk then mx_mk := mkf;
              if Q.gt memf !mx_mem then mx_mem := memf)
        (slice ci);
      if !cnt > 0 then
        Table.add_row tbl
          [
            Table.cell_int nlo;
            Table.cell_int m;
            Table.cell_int !cnt;
            Table.cell_q_float !mx_mk;
            Table.cell_q_float !mx_mem;
            "3.000";
            Table.cell_int !fb;
          ])
    sizes;
  Table.print tbl

(** {b T5} — Theorem VI.3 (memory Model 2): σ = 2 + H_k by level count. *)
let t5 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create ~title:"T5: memory Model 2 sigma factors (Theorem VI.3: sigma = 2 + H_k)"
      ~header:[ "k"; "m"; "inst"; "max makespan/T"; "max mem/cap"; "sigma bound" ]
  in
  let shapes =
    if quick then [ [ 4 ] ] else [ [ 4 ]; [ 2; 2 ]; [ 2; 2; 2 ]; [ 2; 2; 2; 2 ] ]
  in
  let trials = if quick then 3 else 6 in
  let items = List.concat_map (fun sh -> List.init trials (fun t -> (sh, t))) shapes in
  let results =
    sweep ~jobs
      (fun (fanouts, t) ->
        let lam = T.balanced fanouts in
        let k = L.nlevels lam in
        let rng = Rng.create (base_seed + (7 * t) + k) in
        let n = 3 + Rng.int rng 4 in
        let inst = Generators.hierarchical rng ~lam ~n ~base:(1, 5) ~overhead:0.2 () in
        let payload = Generators.model2_payload rng inst ~mu:(Q.of_int 2) in
        match Memory.solve_model2 inst payload with
        | Error _ -> None
        | Ok r -> Some (r.makespan_factor, r.max_capacity_factor))
      items
  in
  let slice = slices results ~width:trials in
  List.iteri
    (fun ci fanouts ->
      let lam = T.balanced fanouts in
      let k = L.nlevels lam in
      let mx_mk = ref Q.zero and mx_mem = ref Q.zero and cnt = ref 0 in
      List.iter
        (function
          | None -> ()
          | Some (mkf, memf) ->
              incr cnt;
              if Q.gt mkf !mx_mk then mx_mk := mkf;
              if Q.gt memf !mx_mem then mx_mem := memf)
        (slice ci);
      if !cnt > 0 then
        Table.add_row tbl
          [
            Table.cell_int k;
            Table.cell_int (L.m lam);
            Table.cell_int !cnt;
            Table.cell_q_float !mx_mk;
            Table.cell_q_float !mx_mem;
            Table.cell_q_float (Memory.sigma_bound ~k);
          ])
    shapes;
  Table.print tbl

(** {b T6} — the Section II reduction for general (non-laminar) masks:
    makespan within 8× of the reduced LP lower bound. *)
let t6 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create ~title:"T6: general (non-laminar) masks, 8-approximation of Section II"
      ~header:[ "n"; "m"; "inst"; "mean ALG/LB"; "max ALG/LB"; "bound" ]
  in
  let trials = if quick then 5 else 15 in
  let sizes = if quick then [ (4, 3) ] else [ (4, 3); (6, 4); (8, 5) ] in
  let items = List.concat_map (fun sz -> List.init trials (fun k -> (sz, k))) sizes in
  let results =
    sweep ~jobs
      (fun ((n, m), k) ->
        let rng = Rng.create (base_seed + (13 * k) + n) in
        (* random overlapping (non-laminar) family: all contiguous windows
           of width 2 plus the singletons *)
        let sets =
          List.init (m - 1) (fun i -> [ i; i + 1 ]) @ List.init m (fun i -> [ i ])
        in
        let nsets = List.length sets in
        let p =
          Array.init n (fun _ ->
              let base = 1 + Rng.int rng 8 in
              let windows = Array.init (m - 1) (fun _ -> base + 1 + Rng.int rng 3) in
              Array.init nsets (fun s ->
                  if s < m - 1 then Ptime.fin windows.(s)
                  else
                    (* singleton {i}: at most the windows containing i *)
                    let i = s - (m - 1) in
                    let cap =
                      List.fold_left Stdlib.min 1000
                        (List.filteri (fun w _ -> w = i - 1 || w = i) (Array.to_list windows |> List.map (fun x -> x)))
                    in
                    Ptime.fin (Stdlib.min base (Stdlib.max 1 (cap - 1)))))
        in
        match General_instance.make ~m ~sets ~p with
        | Error _ -> None
        | Ok g -> (
            match Approx.solve_general g with
            | Error _ -> None
            | Ok o when o.lower_bound > 0 ->
                Some (float_of_int o.makespan /. float_of_int o.lower_bound)
            | Ok _ -> None))
      items
  in
  let slice = slices results ~width:trials in
  List.iteri
    (fun ci (n, m) ->
      let ratios = rev_successes (slice ci) in
      if ratios <> [] then begin
        let mean = List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios) in
        let mx = List.fold_left Float.max 0. ratios in
        Table.add_row tbl
          [
            Table.cell_int n;
            Table.cell_int m;
            Table.cell_int (List.length ratios);
            Table.cell_float mean;
            Table.cell_float mx;
            "8.000";
          ]
      end)
    sizes;
  Table.print tbl

(** {b F4} — Lemma V.1: fractional mass by level before and after the
    push-down; after the sweep everything sits on level-max singletons. *)
let f4 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create ~title:"F4: Lemma V.1 push-down, fractional mass by set cardinality"
      ~header:[ "seed"; "card"; "mass before"; "mass after"; "feasible after" ]
  in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let rows_by_seed =
    sweep ~jobs
      (fun seed ->
        let module I = Ilp.Make (Hs_lp.Field.Exact) in
        let module P = Pushdown.Make (Hs_lp.Field.Exact) in
        let rng = Rng.create (base_seed + seed) in
        let lam = T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2 in
        let inst = Generators.hierarchical rng ~lam ~n:10 ~base:(2, 8) ~overhead:0.25 () in
        match I.min_feasible_t inst with
        | None -> []
        | Some (t, x) ->
            let x' = P.push_down inst ~tmax:t x in
            let lamc = Instance.laminar inst in
            let mass (z : Q.t array array) card =
              let acc = ref Q.zero in
              Array.iteri
                (fun s row ->
                  if L.card lamc s = card then Array.iter (fun v -> acc := Q.add !acc v) row)
                z;
              !acc
            in
            let feas = P.feasible inst ~tmax:t x' && P.singletons_only inst x' in
            List.filter_map
              (fun card ->
                let before = mass x card and after = mass x' card in
                if Q.sign before <> 0 || Q.sign after <> 0 then
                  Some
                    [
                      Table.cell_int seed;
                      Table.cell_int card;
                      Table.cell_q_float before;
                      Table.cell_q_float after;
                      (if feas then "yes" else "NO");
                    ]
                else None)
              [ 1; 2; 4; 8 ])
      seeds
  in
  List.iter (List.iter (Table.add_row tbl)) rows_by_seed;
  Table.print tbl

(** {b F5} — the motivating SMP-CMP effect: realised makespan under
    explicit per-level migration latencies vs the model's makespan.
    Single instance, sequential. *)
let f5 ?(quick = false) () =
  let tbl =
    Table.create
      ~title:"F5: realised/model makespan on a 2x2x2 SMP-CMP cluster, by latency scale"
      ~header:
        [ "latency (chip,node,inter)"; "realised/model"; "stall"; "migr intra"; "migr chip"; "migr node" ]
  in
  let lam = T.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2 in
  let rng = Rng.create base_seed in
  let inst = Generators.hierarchical rng ~lam ~n:16 ~base:(3, 9) ~overhead:0.15 () in
  match Approx.Exact.solve inst with
  | Error _ -> print_endline "F5: pipeline failed"
  | Ok o ->
      (* Migrations need a migratory schedule: use a random feasible
         hierarchical assignment rather than the (partitioned) rounding
         output. *)
      let lamc = Instance.laminar o.instance in
      let a =
        Array.init (Instance.njobs o.instance) (fun j ->
            if j mod 3 = 0 then List.hd (L.roots lamc) else o.assignment.(j))
      in
      let t = Assignment.min_makespan o.instance a in
      (match Hierarchical.schedule o.instance a ~tmax:t with
      | Error e -> Printf.printf "F5: scheduler failed: %s\n" e
      | Ok sched ->
          let scales = if quick then [ 0; 2; 8 ] else [ 0; 1; 2; 4; 8; 16 ] in
          List.iter
            (fun s ->
              let table = [| 0; s; 2 * s; 4 * s |] in
              let latency = Hs_sim.Simulator.latency_of_levels lam table in
              let r = Hs_sim.Simulator.run ~lam sched ~latency in
              let by_level h =
                Option.value ~default:0 (List.assoc_opt h r.migrations_by_level)
              in
              Table.add_row tbl
                [
                  Printf.sprintf "(%d,%d,%d)" s (2 * s) (4 * s);
                  Table.cell_float
                    (float_of_int r.realised_makespan /. float_of_int (Stdlib.max 1 r.model_makespan));
                  Table.cell_int r.total_stall;
                  Table.cell_int (by_level 1);
                  Table.cell_int (by_level 2);
                  Table.cell_int (by_level 3);
                ])
            scales);
      Table.print tbl

(** {b A1} (ablation) — value of the branch-and-bound warm start: nodes
    explored with the built-in greedy warm start vs. seeding with the
    2-approximation's solution. *)
let a1 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create ~title:"A1 (ablation): B&B warm start, node counts to proven optimality"
      ~header:[ "n"; "m"; "inst"; "greedy-start nodes"; "approx-start nodes"; "ratio" ]
  in
  let trials = if quick then 3 else 8 in
  let sizes = if quick then [ (8, 4) ] else [ (8, 4); (10, 4); (12, 5) ] in
  let items = List.concat_map (fun sz -> List.init trials (fun k -> (sz, k))) sizes in
  let results =
    sweep ~jobs
      (fun ((n, m), k) ->
        let rng = Rng.create (base_seed + (41 * k) + n) in
        let inst =
          Generators.hierarchical rng ~lam:(T.semi_partitioned m) ~n ~base:(1, 9)
            ~heterogeneity:1.7 ~overhead:0.25 ()
        in
        match (Exact.optimal inst, Approx.Exact.solve inst) with
        | Some (_, _, sg), Ok o when sg.proven -> (
            match Exact.optimal ~initial:(o.assignment, o.makespan) inst with
            | Some (_, _, sa) when sa.proven -> Some (sg.nodes, sa.nodes)
            | _ -> None)
        | _ -> None)
      items
  in
  let slice = slices results ~width:trials in
  List.iteri
    (fun ci (n, m) ->
      let acc_g = ref 0 and acc_a = ref 0 and cnt = ref 0 in
      List.iter
        (function
          | None -> ()
          | Some (g, a) ->
              acc_g := !acc_g + g;
              acc_a := !acc_a + a;
              incr cnt)
        (slice ci);
      if !cnt > 0 then
        Table.add_row tbl
          [
            Table.cell_int n;
            Table.cell_int m;
            Table.cell_int !cnt;
            Table.cell_int (!acc_g / !cnt);
            Table.cell_int (!acc_a / !cnt);
            Table.cell_float (float_of_int !acc_a /. float_of_int (Stdlib.max 1 !acc_g));
          ])
    sizes;
  Table.print tbl

(** {b A2} (ablation) — why the pipeline re-solves the unrelated
    restriction before rounding: the pushed-down solution (Lemma V.1) is
    feasible but generally not a vertex, so rounding it directly needs
    the greedy fallback; re-solving always yields a perfect matching. *)
let a2 ?(quick = false) ?(jobs = 1) () =
  let tbl =
    Table.create
      ~title:"A2 (ablation): LST on pushed-down solutions vs re-solved vertices"
      ~header:
        [ "inst"; "frac jobs (pushdown)"; "unmatched (pushdown)"; "frac jobs (resolve)"; "unmatched (resolve)" ]
  in
  let trials = if quick then 10 else 40 in
  let results =
    sweep ~jobs
      (fun k ->
        let module I = Ilp.Make (Hs_lp.Field.Exact) in
        let module P = Pushdown.Make (Hs_lp.Field.Exact) in
        let module R = Lst_rounding.Make (Hs_lp.Field.Exact) in
        let rng = Rng.create (base_seed + (59 * k)) in
        let m = 3 + Rng.int rng 4 in
        let n = 4 + Rng.int rng 6 in
        let inst =
          Generators.hierarchical rng
            ~lam:(Generators.random_laminar rng ~m ())
            ~n ~base:(1, 9) ~heterogeneity:1.7 ~overhead:0.3 ()
        in
        let closed, _ = Instance.with_singletons inst in
        match I.min_feasible_t closed with
        | None -> None
        | Some (t, x) -> (
            let xd = P.push_down closed ~tmax:t x in
            let iu = Approx.Exact.unrelated_restriction closed in
            match (R.round closed xd, I.lp_feasible iu ~tmax:t) with
            | Ok (_, spd), Some xu -> (
                match R.round iu xu with
                | Ok (_, srs) ->
                    Some
                      ( spd.fractional_jobs,
                        spd.fractional_jobs - spd.matched,
                        srs.fractional_jobs,
                        srs.fractional_jobs - srs.matched )
                | Error _ -> None)
            | _ -> None))
      (List.init trials (fun k -> k))
  in
  let pd_frac = ref 0 and pd_unmatched = ref 0 in
  let rs_frac = ref 0 and rs_unmatched = ref 0 in
  let cnt = ref 0 in
  List.iter
    (function
      | None -> ()
      | Some (pf, pu, rf, ru) ->
          incr cnt;
          pd_frac := !pd_frac + pf;
          pd_unmatched := !pd_unmatched + pu;
          rs_frac := !rs_frac + rf;
          rs_unmatched := !rs_unmatched + ru)
    results;
  Table.add_row tbl
    [
      Table.cell_int !cnt;
      Table.cell_int !pd_frac;
      Table.cell_int !pd_unmatched;
      Table.cell_int !rs_frac;
      Table.cell_int !rs_unmatched;
    ];
  Table.print tbl

(** {b A3} (ablation) — simplex pricing: wall time of the exact (IP-3)
    relaxation under Bland's rule vs Dantzig with Bland fallback.
    Sequential at any [jobs] (wall-clock measurement). *)
let a3 ?(quick = false) () =
  let module I = Ilp.Make (Hs_lp.Field.Exact) in
  let module S = Hs_lp.Simplex.Make (Hs_lp.Field.Exact) in
  let tbl =
    Table.create ~title:"A3 (ablation): simplex pricing on the (IP-3) relaxation"
      ~header:[ "n"; "m"; "vars"; "Bland (s)"; "Dantzig (s)"; "speedup" ]
  in
  let sizes = if quick then [ (8, 4) ] else [ (8, 4); (16, 4); (24, 6); (32, 6) ] in
  List.iter
    (fun (n, m) ->
      let rng = Rng.create (base_seed + n + (3 * m)) in
      let inst =
        Generators.hierarchical rng ~lam:(T.semi_partitioned m) ~n ~base:(2, 15)
          ~heterogeneity:1.7 ~overhead:0.2 ()
      in
      let closed, _ = Instance.with_singletons inst in
      match I.min_feasible_t closed with
      | None -> ()
      | Some (t, _) -> (
          match I.relaxation closed ~tmax:t with
          | None -> ()
          | Some (lp, _) ->
              let time pricing =
                let t0 = Sys.time () in
                for _ = 1 to 3 do
                  ignore (S.feasible ~pricing lp : S.feasibility)
                done;
                (Sys.time () -. t0) /. 3.
              in
              let tb = time S.Bland and td = time S.Dantzig in
              Table.add_row tbl
                [
                  Table.cell_int n;
                  Table.cell_int m;
                  Table.cell_int lp.Hs_lp.Lp_problem.nvars;
                  Table.cell_float ~digits:4 tb;
                  Table.cell_float ~digits:4 td;
                  Table.cell_float (tb /. Float.max 1e-9 td);
                ]))
    sizes;
  Table.print tbl

let all ?quick ?jobs () =
  t1 ?quick ?jobs ();
  t2 ?quick ?jobs ();
  t3 ?quick ?jobs ();
  t4 ?quick ?jobs ();
  t5 ?quick ?jobs ();
  t6 ?quick ?jobs ();
  f1 ?quick ?jobs ();
  f2 ?quick ?jobs ();
  f3 ?quick ();
  f4 ?quick ?jobs ();
  f5 ?quick ();
  a1 ?quick ?jobs ();
  a2 ?quick ?jobs ();
  a3 ?quick ()

let by_name name ?quick ?jobs () =
  match String.lowercase_ascii name with
  | "t1" -> t1 ?quick ?jobs ()
  | "t2" -> t2 ?quick ?jobs ()
  | "t3" -> t3 ?quick ?jobs ()
  | "t4" -> t4 ?quick ?jobs ()
  | "t5" -> t5 ?quick ?jobs ()
  | "t6" -> t6 ?quick ?jobs ()
  | "f1" -> f1 ?quick ?jobs ()
  | "f2" -> f2 ?quick ?jobs ()
  | "f3" -> f3 ?quick ()
  | "f4" -> f4 ?quick ?jobs ()
  | "f5" -> f5 ?quick ()
  | "a1" -> a1 ?quick ?jobs ()
  | "a2" -> a2 ?quick ?jobs ()
  | "a3" -> a3 ?quick ()
  | "all" -> all ?quick ?jobs ()
  | other -> Printf.eprintf "unknown experiment %s (T1-T6, F1-F5, A1-A3, all)\n" other

let names =
  [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6"; "F1"; "F2"; "F3"; "F4"; "F5"; "A1"; "A2"; "A3" ]

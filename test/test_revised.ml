(* Differential suite for the LP engine (Hs_lp.Simplex, a sparse
   revised simplex) against the dense tableau oracle in
   dense_oracle.ml, plus the soundness of basis proposals (the entry
   --lp-presolve uses) and of the presolved horizon search, the
   degenerate and pivot-budget pins, and the Hs_check vertex
   invariant.

   The engine and the oracle may pivot along different paths to
   different optimal vertices, so the differential compares results:
   the same result kind, the same exact objective, both points basic
   feasible per Hs_check.Check.lp_vertex, and the engine's own
   certificates (optimal duals, Farkas witnesses) passing the
   independent checkers. *)

open Hs_lp
module Q = Hs_numeric.Q
module SQ = Simplex.Make (Field.Exact)
module Ilp = Hs_core.Ilp.Make (Field.Exact)
module Oracle = Hs_workloads.Oracle
module Shrink = Hs_workloads.Shrink
module Rng = Hs_workloads.Rng

let q = Q.of_int
let qq = Q.of_ints
let c ?name terms rel rhs = Lp_problem.constr ?name terms rel rhs

let counter name =
  let s = Hs_obs.Metrics.snapshot () in
  Option.value ~default:0 (List.assoc_opt name s.Hs_obs.Metrics.counters)

let result_tag = function
  | SQ.Optimal _ -> "optimal"
  | SQ.Infeasible -> "infeasible"
  | SQ.Unbounded -> "unbounded"

let oracle_tag = function
  | Dense_oracle.Optimal _ -> "optimal"
  | Dense_oracle.Infeasible -> "infeasible"
  | Dense_oracle.Unbounded -> "unbounded"

let check_vertex label who p ~x ~basic ~objective =
  List.iter
    (fun (it : Hs_check.Verdict.item) ->
      if not it.ok then
        Alcotest.failf "%s: %s solution violates %s: %s" label who it.invariant
          it.detail)
    (Hs_check.Check.lp_vertex p ~x ~basic ~objective)

(* Solve with the engine and the oracle and require the same result
   kind and exact objective, with both points basic feasible.  Then
   re-solve the minimisation form with certificates and check them:
   the optimal duals with check_optimal, a Farkas witness with
   check_farkas. *)
let differential ?(maximize = false) label p =
  let o = Dense_oracle.solve ~maximize p in
  let s = SQ.solve ~maximize p in
  Alcotest.(check string) (label ^ ": result kind") (oracle_tag o) (result_tag s);
  (match (o, s) with
  | Dense_oracle.Optimal os, SQ.Optimal ss ->
      Alcotest.(check string)
        (label ^ ": objective")
        (Q.to_string os.objective) (Q.to_string ss.objective);
      check_vertex label "oracle" p ~x:os.x ~basic:os.basic ~objective:os.objective;
      check_vertex label "engine" p ~x:ss.x ~basic:ss.basic ~objective:ss.objective
  | _ -> ());
  let pmin =
    if maximize then
      {
        p with
        Lp_problem.objective =
          List.map (fun (v, k) -> (v, Q.neg k)) p.Lp_problem.objective;
      }
    else p
  in
  match (SQ.solve_certified pmin, s) with
  | SQ.Certified_optimal cert, SQ.Optimal ss ->
      Alcotest.(check bool) (label ^ ": optimality certificate") true
        (SQ.check_optimal pmin cert);
      Alcotest.(check string)
        (label ^ ": certified objective")
        (Q.to_string ss.objective)
        (Q.to_string
           (if maximize then Q.neg cert.primal.objective else cert.primal.objective))
  | SQ.Certified_infeasible y, SQ.Infeasible ->
      Alcotest.(check bool) (label ^ ": Farkas certificate") true (SQ.check_farkas p y)
  | SQ.Certified_unbounded, SQ.Unbounded -> ()
  | _ -> Alcotest.failf "%s: certified solve disagrees with solve" label

(* ---- fixtures carried over from test_simplex.ml ---------------------- *)

let fixtures =
  [
    ( "textbook max",
      true,
      Lp_problem.make ~nvars:2
        ~objective:[ (0, q 3); (1, q 5) ]
        [
          c [ (0, q 1) ] Le (q 4);
          c [ (1, q 2) ] Le (q 12);
          c [ (0, q 3); (1, q 2) ] Le (q 18);
        ] );
    ( "min with >=",
      false,
      Lp_problem.make ~nvars:2
        ~objective:[ (0, q 2); (1, q 3) ]
        [ c [ (0, q 1); (1, q 1) ] Ge (q 4); c [ (0, q 1) ] Ge (q 1) ] );
    ( "infeasible pair",
      false,
      Lp_problem.make ~nvars:2
        [ c [ (0, q 1); (1, q 1) ] Le (q 1); c [ (0, q 1); (1, q 1) ] Ge (q 3) ]
    );
    ( "unbounded ray",
      true,
      Lp_problem.make ~nvars:1 ~objective:[ (0, q 1) ] [ c [ (0, q 1) ] Ge (q 1) ]
    );
    ( "fractional vertex",
      true,
      Lp_problem.make ~nvars:2 ~objective:[ (0, q 1) ]
        [
          c [ (0, q 1); (1, q 1) ] Eq (q 1);
          c [ (0, q 2); (1, q 1) ] Le (qq 3 2);
        ] );
    ( "negative rhs",
      false,
      Lp_problem.make ~nvars:1 ~objective:[ (0, q 1) ]
        [ c [ (0, q (-1)) ] Le (q (-2)); c [ (0, q 1) ] Le (q 5) ] );
    ( "redundant equalities",
      false,
      Lp_problem.make ~nvars:2
        ~objective:[ (0, q 1); (1, q 1) ]
        [
          c [ (0, q 1); (1, q 1) ] Eq (q 2);
          c [ (0, q 2); (1, q 2) ] Eq (q 4);
          c [ (0, q 1) ] Le (q 2);
        ] );
    ( "duplicate terms",
      true,
      Lp_problem.make ~nvars:1 ~objective:[ (0, q 1) ]
        [ c [ (0, q 1); (0, q 1) ] Le (q 4) ] );
    ( "degenerate (Beale)",
      false,
      Lp_problem.make ~nvars:4
        ~objective:[ (0, qq (-3) 4); (1, q 150); (2, qq (-1) 50); (3, q 6) ]
        [
          c [ (0, qq 1 4); (1, q (-60)); (2, qq (-1) 25); (3, q 9) ] Le (q 0);
          c [ (0, qq 1 2); (1, q (-90)); (2, qq (-1) 50); (3, q 3) ] Le (q 0);
          c [ (2, q 1) ] Le (q 1);
        ] );
    ( "zero-variable row",
      false,
      Lp_problem.make ~nvars:1 [ c [] Le (q 3) ] );
  ]

let test_fixture_differential () =
  List.iter (fun (label, maximize, p) -> differential ~maximize label p) fixtures

(* ---- 200+ seeded instances ------------------------------------------- *)

(* Deterministic mixed Le/Ge/Eq systems, feasible at a known point by
   construction except when the seed injects a contradictory pair.
   Minimising the all-ones objective over x ≥ 0 is always bounded. *)
let seeded_lp seed =
  let rng = Rng.create (0xD1F0 + seed) in
  let nvars = 1 + Rng.int rng 6 in
  let nrows = 1 + Rng.int rng 6 in
  let x0 = Array.init nvars (fun _ -> Rng.int rng 11) in
  let row () = Array.init nvars (fun _ -> Rng.int_range rng (-4) 6) in
  let dot r = Array.fold_left ( + ) 0 (Array.mapi (fun i a -> a * x0.(i)) r) in
  let terms r = Array.to_list (Array.mapi (fun i a -> (i, q a)) r) in
  let constrs =
    List.init nrows (fun _ ->
        let r = row () in
        match Rng.int rng 4 with
        | 0 -> c (terms r) Eq (q (dot r))
        | 1 -> c (terms r) Ge (q (dot r - Rng.int rng 5))
        | _ -> c (terms r) Le (q (dot r + Rng.int rng 6)))
  in
  let constrs =
    if seed mod 7 = 0 then
      (* contradictory pair: sum x <= 7 and sum x >= 8 + gap *)
      let all = List.init nvars (fun i -> (i, q 1)) in
      c all Le (q 7) :: c all Ge (q (8 + Rng.int rng 20)) :: constrs
    else constrs
  in
  Lp_problem.make ~nvars
    ~objective:(List.init nvars (fun i -> (i, q 1)))
    constrs

let test_seeded_differential () =
  for seed = 0 to 209 do
    differential (Printf.sprintf "seed %d" seed) (seeded_lp seed)
  done

(* ---- basis proposals (feasible_basis ~warm) ---------------------------- *)

(* The entry the float pre-solve proposes its guesses through.  Every
   point is checked as a vertex of the zero-objective problem that
   feasible_basis actually solves. *)

let feasible_seed seed = seeded_lp ((seed * 7) + 1) (* avoid the seed mod 7 = 0 injection *)
let zero_objective p = { p with Lp_problem.objective = [] }

let check_feasible_vertex label p (s : SQ.solution) =
  check_vertex label "proposal" (zero_objective p) ~x:s.x ~basic:s.basic ~objective:Q.zero

(* A basis proposed back to the problem it came from is a witness for
   the same vertex: one hit, no miss, no pivot. *)
let test_warm_same_objective () =
  for seed = 0 to 24 do
    let p = feasible_seed seed in
    let label = Printf.sprintf "seed %d" seed in
    let cold, basis =
      match SQ.feasible_basis p with
      | Some r -> r
      | None -> Alcotest.failf "%s: expected feasible" label
    in
    Hs_obs.Metrics.reset ();
    match SQ.feasible_basis ~warm:basis p with
    | Some (s, _) ->
        check_feasible_vertex label p s;
        Alcotest.(check (array string))
          (label ^ ": same vertex")
          (Array.map Q.to_string cold.x) (Array.map Q.to_string s.x);
        Alcotest.(check (list int))
          (label ^ ": hits, misses, pivots")
          [ 1; 0; 0 ]
          (List.map counter
             [ "lp.warm_start.hits"; "lp.warm_start.misses"; "simplex.pivots" ])
    | None -> Alcotest.failf "%s: own basis lost feasibility" label
  done

let test_corrupt_basis_repaired () =
  let p = feasible_seed 3 in
  (* Garbage proposals: out-of-range variables, duplicates, auxiliaries
     of rows that do not exist, and a basis stolen from an unrelated
     problem.  All must be repaired or rejected — never trusted. *)
  let corrupt_proposals =
    [
      [ Basis.Var 0; Basis.Var 0; Basis.Var 9999; Basis.Aux 999; Basis.Aux (-1) ];
      List.init 40 (fun i -> Basis.Var i);
      (match SQ.feasible_basis (feasible_seed 11) with
      | Some (_, b) -> b
      | None -> []);
    ]
  in
  List.iteri
    (fun k proposal ->
      Hs_obs.Metrics.reset ();
      match SQ.feasible_basis ~warm:proposal p with
      | Some (s, _) ->
          check_feasible_vertex (Printf.sprintf "corrupt %d" k) p s;
          let hits = counter "lp.warm_start.hits" in
          let misses = counter "lp.warm_start.misses" in
          (* Out-of-range entries are dropped at translation, so a
             sanitised prefix may still load cleanly (a hit); what the
             metrics must never do is skip the accounting. *)
          Alcotest.(check bool)
            (Printf.sprintf "corrupt %d: warm attempt recorded" k)
            true
            (hits > 0 || misses > 0 || proposal = [])
      | None -> Alcotest.failf "corrupt %d: lost feasibility" k)
    corrupt_proposals

(* A loaded proposal is only ever a starting point: on a system with no
   solution, phase 1 must still report infeasibility. *)
let test_foreign_basis_infeasible () =
  for k = 0 to 29 do
    let p = seeded_lp (7 * k) in
    match SQ.feasible_basis p with
    | Some _ -> Alcotest.failf "seeded_lp %d: fixture should be infeasible" (7 * k)
    | None -> (
        let donor =
          match SQ.feasible_basis (feasible_seed k) with
          | Some (_, b) -> b
          | None -> Alcotest.failf "feasible_seed %d: expected feasible" k
        in
        match SQ.feasible_basis ~warm:donor p with
        | None -> ()
        | Some _ -> Alcotest.failf "seeded_lp %d: a foreign basis made it feasible" (7 * k))
  done

(* The float pre-solve is the library's only proposer.  Without it no
   horizon probe proposes a basis; with it every probe is offered the
   float guess, and the search still returns the cold T*.  A failing
   seed is shrunk to a minimal instance before reporting. *)
let test_presolve_search_same_horizon () =
  let with_presolve f =
    Simplex.set_presolve true;
    Fun.protect ~finally:(fun () -> Simplex.set_presolve false) f
  in
  let horizon inst = Option.map fst (Ilp.min_feasible_t inst) in
  let disagrees inst = horizon inst <> with_presolve (fun () -> horizon inst) in
  let proposals () = counter "lp.warm_start.hits" + counter "lp.warm_start.misses" in
  let hinted = ref 0 in
  for seed = 0 to 14 do
    let inst = Oracle.instance_of_seed ~max_m:4 ~max_n:7 seed in
    Hs_obs.Metrics.reset ();
    let cold = horizon inst in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: cold search proposes nothing" seed)
      [ 0; 0 ]
      [ proposals (); counter "lp.presolve.guesses" ];
    Hs_obs.Metrics.reset ();
    let warm = with_presolve (fun () -> horizon inst) in
    hinted := !hinted + proposals ();
    if cold <> warm then begin
      let minimal = Shrink.minimize ~still_failing:disagrees inst in
      let jobs, sets, vol = Shrink.measure minimal in
      Alcotest.failf
        "seed %d: presolved binary search diverges; minimal counterexample \
         has %d jobs / %d sets / volume %d"
        seed jobs sets vol
    end
  done;
  Alcotest.(check bool) "the float guesses reach the loader" true (!hinted > 0)

(* ---- degenerate pins and pivot budgets --------------------------------- *)

let beale = List.assoc "degenerate (Beale)" (List.map (fun (l, _, p) -> (l, p)) fixtures)

let fully_degenerate =
  (* Every rhs zero: the only feasible point is the origin and every
     pivot is degenerate. *)
  Lp_problem.make ~nvars:3
    ~objective:[ (0, q (-1)); (1, q (-1)); (2, q (-1)) ]
    [
      c [ (0, q 1); (1, q (-1)) ] Le (q 0);
      c [ (1, q 1); (2, q (-1)) ] Le (q 0);
      c [ (2, q 1); (0, q (-1)) ] Le (q 0);
      c [ (0, q 1); (1, q 1); (2, q 1) ] Eq (q 0);
    ]

let test_degenerate_pins () =
  List.iter
    (fun (label, p, expected) ->
      List.iter
        (fun (rule, pricing) ->
          match SQ.solve ~pricing p with
          | SQ.Optimal s ->
              Alcotest.(check string)
                (Printf.sprintf "%s under %s" label rule)
                expected (Q.to_string s.objective)
          | _ -> Alcotest.failf "%s under %s: expected optimal" label rule)
        [ ("Dantzig", SQ.Dantzig); ("Bland", SQ.Bland) ])
    [ ("Beale", beale, "-1/20"); ("fully degenerate", fully_degenerate, "0") ]

let test_pivot_limit () =
  (* Every allowance short of the unmetered pivot count runs dry, and
     the budget records exactly the pivots it allowed. *)
  let p = seeded_lp 42 in
  let full =
    let b = Simplex.budget 100_000 in
    ignore (SQ.solve ~budget:b p);
    Simplex.consumed b
  in
  Alcotest.(check bool) "fixture pivots at least once" true (full > 0);
  for k = 0 to full - 1 do
    let b = Simplex.budget k in
    match SQ.solve ~budget:b p with
    | exception Simplex.Pivot_limit ->
        Alcotest.(check int) (Printf.sprintf "budget %d: consumed" k) k (Simplex.consumed b)
    | _ -> Alcotest.failf "budget %d: solve finished under %d pivots" k full
  done

(* ---- the Hs_check vertex invariant blames corruption ------------------ *)

let test_lp_vertex_blames () =
  let p = List.nth fixtures 0 |> fun (_, _, p) -> p in
  let s =
    match SQ.solve ~maximize:true p with
    | SQ.Optimal s -> s
    | _ -> Alcotest.fail "expected optimal"
  in
  let failed ~x ~basic ~objective =
    List.filter_map
      (fun (it : Hs_check.Verdict.item) ->
        if it.ok then None else Some it.invariant)
      (Hs_check.Check.lp_vertex p ~x ~basic ~objective)
  in
  Alcotest.(check (list string))
    "honest solution passes" []
    (failed ~x:s.x ~basic:s.basic ~objective:s.objective);
  (* A nonbasic variable pushed off its bound. *)
  let basic' = Array.copy s.basic in
  let v =
    match Array.to_list (Array.mapi (fun i b -> (i, b)) s.basic)
          |> List.find_opt (fun (i, b) -> b && Q.sign s.x.(i) <> 0)
    with
    | Some (i, _) -> i
    | None -> Alcotest.fail "no basic variable at a nonzero level"
  in
  basic'.(v) <- false;
  Alcotest.(check bool) "unflagged basic variable blamed" true
    (List.mem "lp.vertex.nonbasic-at-bound"
       (failed ~x:s.x ~basic:basic' ~objective:s.objective));
  (* A lying objective. *)
  Alcotest.(check bool) "wrong objective blamed" true
    (List.mem "lp.vertex.objective"
       (failed ~x:s.x ~basic:s.basic ~objective:(Q.add s.objective Q.one)));
  (* An infeasible point. *)
  let x' = Array.copy s.x in
  x'.(0) <- q 1000;
  Alcotest.(check bool) "violated constraint blamed" true
    (List.mem "lp.vertex.feasible"
       (failed ~x:x' ~basic:s.basic ~objective:s.objective));
  (* Shape mismatch. *)
  Alcotest.(check bool) "truncated arrays blamed" true
    (List.mem "lp.vertex.shape"
       (failed ~x:[| q 0 |] ~basic:s.basic ~objective:s.objective));
  (* Everything basic: support bound must trip (3 rows, both vars basic
     plus padding flags keeps support <= rows here, so widen instead:
     claim every variable basic on a 1-row problem). *)
  let tiny = Lp_problem.make ~nvars:3 [ c [ (0, q 1); (1, q 1); (2, q 1) ] Le (q 9) ] in
  let items =
    Hs_check.Check.lp_vertex tiny ~x:[| q 1; q 1; q 1 |]
      ~basic:[| true; true; true |] ~objective:Q.zero
  in
  Alcotest.(check bool) "oversized support blamed" true
    (List.exists
       (fun (it : Hs_check.Verdict.item) ->
         it.invariant = "lp.vertex.support" && not it.ok)
       items)

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  ( "revised",
    [
      u "fixtures agree with the dense oracle" test_fixture_differential;
      u "210 seeded LPs agree with the dense oracle" test_seeded_differential;
      u "warm solve = cold objective" test_warm_same_objective;
      u "corrupted bases repaired, never trusted" test_corrupt_basis_repaired;
      u "foreign basis on infeasible systems stays None" test_foreign_basis_infeasible;
      u "presolved binary search = cold T* (shrinking)" test_presolve_search_same_horizon;
      u "degenerate pins under Dantzig and Bland" test_degenerate_pins;
      u "Pivot_limit at every short allowance" test_pivot_limit;
      u "lp_vertex blames corruption" test_lp_vertex_blames;
    ] )

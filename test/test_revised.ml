(* Differential suite for the LP engine (Hs_lp.Simplex, a sparse
   revised feasibility simplex) against the dense tableau oracle in
   dense_oracle.ml, plus the presolve guess (--lp-presolve) and the
   presolved horizon search, the degenerate and pivot-budget pins, and
   the Hs_check vertex invariant.

   The engine only decides feasibility; the oracle still optimises, and
   its optimum z* becomes two feasibility pins: the system with the cut
   c·x ≤ z* (≥ for a maximisation) is feasible, with a vertex that
   passes Hs_check.Check.lp_vertex, and with the cut moved 1/1000 past
   z* it is infeasible, with a Farkas ray that passes check_farkas.  An
   unbounded LP stays feasible at a cut far beyond any vertex.  The
   engine and the oracle may pivot along different paths, so only
   verdicts and certificates are compared. *)

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

let check_vertex label who p ~x ~basic ~objective =
  List.iter
    (fun (it : Hs_check.Verdict.item) ->
      if not it.ok then
        Alcotest.failf "%s: %s solution violates %s: %s" label who it.invariant
          it.detail)
    (Hs_check.Check.lp_vertex p ~x ~basic ~objective)

let zero_objective p = { p with Lp_problem.objective = [] }

(* [p] as a pure system with one more row bounding the objective by
   [z]: c·x ≤ z when minimising, c·x ≥ z (written −c·x ≤ −z) when
   maximising. *)
let cut ~maximize p z =
  let s v = if maximize then Q.neg v else v in
  Lp_problem.make ~nvars:p.Lp_problem.nvars
    (p.Lp_problem.constrs
    @ [ c ~name:"cut" (List.map (fun (v, k) -> (v, s k)) p.Lp_problem.objective) Le (s z) ])

(* The cut just past an optimum z*. *)
let past ~maximize z = if maximize then Q.add z (qq 1 1000) else Q.sub z (qq 1 1000)

(* The pins of one LP: the system itself, and with the oracle's optimum
   the cut at z* and just past it (or, when the oracle finds no bound,
   a cut far beyond any vertex); each with the verdict it must get. *)
let pins ?(maximize = false) label p =
  let far = if maximize then q 1_000_000 else q (-1_000_000) in
  match Dense_oracle.solve ~maximize p with
  | Dense_oracle.Infeasible -> [ (label, zero_objective p, false) ]
  | Dense_oracle.Unbounded ->
      [ (label, zero_objective p, true); (label ^ " at a far cut", cut ~maximize p far, true) ]
  | Dense_oracle.Optimal o ->
      check_vertex label "oracle" p ~x:o.x ~basic:o.basic ~objective:o.objective;
      [
        (label, zero_objective p, true);
        (label ^ " at z*", cut ~maximize p o.objective, true);
        (label ^ " past z*", cut ~maximize p (past ~maximize o.objective), false);
      ]

(* The engine's verdict on a pure system, with its certificate checked:
   a vertex per Hs_check.Check.lp_vertex, or a Farkas ray per
   check_farkas. *)
let expect ?pricing ?budget label p feasible =
  match (SQ.feasible ?pricing ?budget p, feasible) with
  | SQ.Feasible s, true -> check_vertex label "engine" p ~x:s.x ~basic:s.basic ~objective:Q.zero
  | SQ.Infeasible_certificate y, false ->
      Alcotest.(check bool) (label ^ ": Farkas ray") true (SQ.check_farkas p y)
  | SQ.Feasible _, false -> Alcotest.failf "%s: expected infeasible" label
  | SQ.Infeasible_certificate _, true -> Alcotest.failf "%s: expected feasible" label

let differential ?maximize label p =
  List.iter (fun (l, sys, f) -> expect l sys f) (pins ?maximize label p)

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

(* ---- the presolve guess ----------------------------------------------- *)

let with_presolve f =
  Simplex.set_presolve true;
  Fun.protect ~finally:(fun () -> Simplex.set_presolve false) f

let feasible_seed seed = seeded_lp ((seed * 7) + 1) (* avoid the seed mod 7 = 0 injection *)

let verdict p = match SQ.feasible p with SQ.Feasible _ -> true | SQ.Infeasible_certificate _ -> false

(* A guess is only ever accepted as an exact witness, so presolve on and
   off give the same verdicts, with certificates that check.  Without
   presolve no guess is made or counted; with it every solve makes one
   float guess, counted as a hit or a miss at most once.  Returns the
   hits. *)
let presolve_same_verdicts inputs =
  List.fold_left
    (fun hits (label, p) ->
      let p = zero_objective p in
      Hs_obs.Metrics.reset ();
      let cold = verdict p in
      Alcotest.(check (list int))
        (label ^ ": no guess without presolve")
        [ 0; 0; 0 ]
        (List.map counter [ "lp.presolve.guesses"; "lp.warm_start.hits"; "lp.warm_start.misses" ]);
      Hs_obs.Metrics.reset ();
      with_presolve (fun () -> expect (label ^ " under presolve") p cold);
      let accounted = counter "lp.warm_start.hits" + counter "lp.warm_start.misses" in
      Alcotest.(check bool) (label ^ ": one guess, counted at most once") true
        (counter "lp.presolve.guesses" = 1 && accounted <= 1);
      hits + counter "lp.warm_start.hits")
    0 inputs

let test_presolve_feasible () =
  let hits =
    presolve_same_verdicts
      (List.init 25 (fun k -> (Printf.sprintf "feasible_seed %d" k, feasible_seed k)))
  in
  Alcotest.(check bool) "some guesses are witnesses" true (hits > 0)

let test_presolve_infeasible () =
  let hits =
    presolve_same_verdicts
      (List.init 30 (fun k -> (Printf.sprintf "seeded_lp %d" (7 * k), seeded_lp (7 * k))))
  in
  Alcotest.(check int) "no witness for an infeasible system" 0 hits

(* Systems the float field gets wrong: x ≥ 1 ∧ x ≤ 1 − 10⁻¹² is feasible
   within the float tolerance, and in x ≤ −10⁻¹² the float field reads
   the rhs as zero and keeps the row while exact Q flips it, so the two
   standard forms differ.  In x + y = 1 ∧ x + y = 1 + 10⁻¹² the guess
   re-factorises with x_B ≥ 0 but leaves the second row's artificial
   basic at 10⁻¹².  Under presolve each guess must be a counted miss and
   the exact answer a verified Farkas ray. *)
let test_presolve_rejects_float_deceit () =
  let tiny = qq 1 1_000_000_000_000 in
  List.iter
    (fun (label, p) ->
      Hs_obs.Metrics.reset ();
      with_presolve (fun () -> expect label p false);
      Alcotest.(check (list int))
        (label ^ ": guesses, hits, misses")
        [ 1; 0; 1 ]
        (List.map counter [ "lp.presolve.guesses"; "lp.warm_start.hits"; "lp.warm_start.misses" ]))
    [
      ( "x >= 1 and x <= 1 - 1e-12",
        Lp_problem.make ~nvars:1 [ c [ (0, q 1) ] Ge (q 1); c [ (0, q 1) ] Le (Q.sub (q 1) tiny) ] );
      ("x <= -1e-12", Lp_problem.make ~nvars:1 [ c [ (0, q 1) ] Le (Q.neg tiny) ]);
      ( "x + y = 1 and x + y = 1 + 1e-12",
        let xy = [ (0, q 1); (1, q 1) ] in
        Lp_problem.make ~nvars:2 [ c xy Eq (q 1); c xy Eq (Q.add (q 1) tiny) ] );
    ]

(* The float pre-solve is the only source of basis guesses.  Without it
   no horizon probe is offered one; with it every probe is, and the
   search still returns the cold T*.  A failing seed is shrunk to a
   minimal instance before reporting. *)
let test_presolve_search_same_horizon () =
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
  Alcotest.(check bool) "the float guesses reach the exact engine" true (!hinted > 0)

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

(* Beale's example with its optimum as a cut, rows ∧ −c·x ≥ rhs:
   feasible at rhs = 1/20, infeasible at 51/1000.  Its Dantzig phase 1
   runs past the degenerate-pivot limit, so only the switch to Bland's
   rule ends it; the 1000-pivot budget turns a missing switch into a
   failure instead of a hang. *)
let beale_cut rhs =
  Lp_problem.make ~nvars:beale.Lp_problem.nvars
    (beale.Lp_problem.constrs
    @ [ c ~name:"cut" (List.map (fun (v, k) -> (v, Q.neg k)) beale.Lp_problem.objective) Ge rhs ])

let test_degenerate_pins () =
  List.iter
    (fun (label, p, feasible) ->
      List.iter
        (fun (rule, pricing) ->
          expect ~pricing ~budget:(Simplex.budget 1_000)
            (Printf.sprintf "%s under %s" label rule)
            p feasible)
        [ ("Dantzig", SQ.Dantzig); ("Bland", SQ.Bland) ])
    [
      ("Beale, -c.x >= 1/20", beale_cut (qq 1 20), true);
      ("Beale, -c.x >= 51/1000", beale_cut (qq 51 1000), false);
      ("fully degenerate at z*", cut ~maximize:false fully_degenerate Q.zero, true);
      ("fully degenerate past z*", cut ~maximize:false fully_degenerate (qq (-1) 1000), false);
    ]

let test_pivot_limit () =
  (* Every allowance short of the unmetered pivot count runs dry, and
     the budget records exactly the pivots it allowed. *)
  let p = seeded_lp 42 in
  let full =
    let b = Simplex.budget 100_000 in
    ignore (SQ.feasible ~budget:b p);
    Simplex.consumed b
  in
  Alcotest.(check bool) "fixture pivots at least once" true (full > 0);
  for k = 0 to full - 1 do
    let b = Simplex.budget k in
    match SQ.feasible ~budget:b p with
    | exception Simplex.Pivot_limit ->
        Alcotest.(check int) (Printf.sprintf "budget %d: consumed" k) k (Simplex.consumed b)
    | _ -> Alcotest.failf "budget %d: solve finished under %d pivots" k full
  done

(* ---- the Hs_check vertex invariant blames corruption ------------------ *)

let test_lp_vertex_blames () =
  (* The textbook maximum as a cut: its only point is the vertex (2, 6). *)
  let p = List.nth fixtures 0 |> fun (_, _, p) -> cut ~maximize:true p (q 36) in
  let s =
    match SQ.feasible p with
    | SQ.Feasible s -> s
    | SQ.Infeasible_certificate _ -> Alcotest.fail "expected feasible"
  in
  let objective = Q.zero in
  let failed ~x ~basic ~objective =
    List.filter_map
      (fun (it : Hs_check.Verdict.item) ->
        if it.ok then None else Some it.invariant)
      (Hs_check.Check.lp_vertex p ~x ~basic ~objective)
  in
  Alcotest.(check (list string))
    "honest solution passes" []
    (failed ~x:s.x ~basic:s.basic ~objective);
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
       (failed ~x:s.x ~basic:basic' ~objective));
  (* A lying objective. *)
  Alcotest.(check bool) "wrong objective blamed" true
    (List.mem "lp.vertex.objective"
       (failed ~x:s.x ~basic:s.basic ~objective:(Q.add objective Q.one)));
  (* An infeasible point. *)
  let x' = Array.copy s.x in
  x'.(0) <- q 1000;
  Alcotest.(check bool) "violated constraint blamed" true
    (List.mem "lp.vertex.feasible"
       (failed ~x:x' ~basic:s.basic ~objective));
  (* Shape mismatch. *)
  Alcotest.(check bool) "truncated arrays blamed" true
    (List.mem "lp.vertex.shape"
       (failed ~x:[| q 0 |] ~basic:s.basic ~objective));
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
      u "presolve on feasible systems = cold verdicts" test_presolve_feasible;
      u "presolve on infeasible systems keeps the Farkas ray" test_presolve_infeasible;
      u "presolve rejects float-deceiving guesses" test_presolve_rejects_float_deceit;
      u "presolved binary search = cold T* (shrinking)" test_presolve_search_same_horizon;
      u "degenerate pins under Dantzig and Bland" test_degenerate_pins;
      u "Pivot_limit at every short allowance" test_pivot_limit;
      u "lp_vertex blames corruption" test_lp_vertex_blames;
    ] )

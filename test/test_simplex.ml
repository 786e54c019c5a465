(* Tests for the feasibility simplex over both field instances.  An
   optimum is pinned as feasibility: the system with the cut c·x ≤ z*
   (≥ when maximising) is feasible with its points on the optimum, and
   the cut moved 1/1000 past z* is infeasible. *)

open Hs_lp
module Q = Hs_numeric.Q
module SQ = Simplex.Make (Field.Exact)
module SF = Simplex.Make (Field.Float)

let q = Q.of_int
let qq = Q.of_ints
let c ?name terms rel rhs = Lp_problem.constr ?name terms rel rhs

let expect_feasible = function
  | SQ.Feasible s -> s
  | SQ.Infeasible_certificate _ -> Alcotest.fail "unexpected infeasible"

let expect_infeasible p = function
  | SQ.Feasible _ -> Alcotest.fail "unexpected feasible"
  | SQ.Infeasible_certificate y ->
      Alcotest.(check bool) "Farkas ray verifies" true (SQ.check_farkas p y)

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

let dot terms (x : Q.t array) =
  List.fold_left (fun acc (v, k) -> Q.add acc (Q.mul k x.(v))) Q.zero terms

(* The cut c·x ≥ z when maximising, c·x ≤ z otherwise. *)
let cut ~maximize obj z = c obj (if maximize then Ge else Le) z

(* Pin the optimum [z] of [obj] over [rows]: the cut 1/1000 past [z] is
   infeasible, and the point found at the cut [z] has c·x = z. *)
let at_optimum ?(maximize = false) ~nvars obj rows z =
  let past = if maximize then Q.add z (qq 1 1000) else Q.sub z (qq 1 1000) in
  let beyond = Lp_problem.make ~nvars (rows @ [ cut ~maximize obj past ]) in
  expect_infeasible beyond (SQ.feasible beyond);
  let s = expect_feasible (SQ.feasible (Lp_problem.make ~nvars (rows @ [ cut ~maximize obj z ]))) in
  check_q "c.x = z*" z (dot obj s.x);
  s

let test_textbook_max () =
  (* max 3x+5y st x<=4, 2y<=12, 3x+2y<=18: opt 36 at (2,6). *)
  let s =
    at_optimum ~maximize:true ~nvars:2
      [ (0, q 3); (1, q 5) ]
      [
        c [ (0, q 1) ] Le (q 4);
        c [ (1, q 2) ] Le (q 12);
        c [ (0, q 3); (1, q 2) ] Le (q 18);
      ]
      (q 36)
  in
  check_q "x" (q 2) s.x.(0);
  check_q "y" (q 6) s.x.(1)

let test_min_with_ge () =
  (* min 2x+3y st x+y>=4, x>=1: opt at (4,0) value 8. *)
  let s =
    at_optimum ~nvars:2
      [ (0, q 2); (1, q 3) ]
      [ c [ (0, q 1); (1, q 1) ] Ge (q 4); c [ (0, q 1) ] Ge (q 1) ]
      (q 8)
  in
  check_q "x" (q 4) s.x.(0)

let test_infeasible () =
  let p =
    Lp_problem.make ~nvars:2
      [ c [ (0, q 1); (1, q 1) ] Le (q 1); c [ (0, q 1); (1, q 1) ] Ge (q 3) ]
  in
  expect_infeasible p (SQ.feasible p)

let test_unbounded () =
  (* max x st x>=1 has no optimum: a cut however far stays feasible. *)
  let far = q 1_000_000 in
  let p = Lp_problem.make ~nvars:1 [ c [ (0, q 1) ] Ge (q 1); cut ~maximize:true [ (0, q 1) ] far ] in
  let s = expect_feasible (SQ.feasible p) in
  Alcotest.(check bool) "x beyond the cut" true (Q.geq s.x.(0) far)

let test_fractional_vertex () =
  let s =
    at_optimum ~maximize:true ~nvars:2
      [ (0, q 1) ]
      [ c [ (0, q 1); (1, q 1) ] Eq (q 1); c [ (0, q 2); (1, q 1) ] Le (qq 3 2) ]
      (qq 1 2)
  in
  check_q "x = 1/2" (qq 1 2) s.x.(0);
  check_q "y = 1/2" (qq 1 2) s.x.(1)

let test_negative_rhs_normalisation () =
  (* -x <= -2 is x >= 2. *)
  let s =
    at_optimum ~nvars:1
      [ (0, q 1) ]
      [ c [ (0, q (-1)) ] Le (q (-2)); c [ (0, q 1) ] Le (q 5) ]
      (q 2)
  in
  check_q "x = 2" (q 2) s.x.(0)

let test_redundant_equalities () =
  let p =
    Lp_problem.make ~nvars:2
      [
        c [ (0, q 1); (1, q 1) ] Eq (q 2);
        c [ (0, q 2); (1, q 2) ] Eq (q 4);
        c [ (0, q 1) ] Le (q 2);
      ]
  in
  let s = expect_feasible (SQ.feasible p) in
  check_q "sum = 2" (q 2) (Q.add s.x.(0) s.x.(1))

let test_duplicate_terms () =
  (* x + x <= 4 must read as 2x <= 4. *)
  let s =
    at_optimum ~maximize:true ~nvars:1 [ (0, q 1) ] [ c [ (0, q 1); (0, q 1) ] Le (q 4) ] (q 2)
  in
  check_q "x = 2" (q 2) s.x.(0)

let test_degenerate_cycling_guard () =
  (* A classically degenerate LP (Beale's): its optimum -1/20 as a cut
     needs the switch to Bland's rule to terminate. *)
  ignore
    (at_optimum ~nvars:4
       [ (0, qq (-3) 4); (1, q 150); (2, qq (-1) 50); (3, q 6) ]
       [
         c [ (0, qq 1 4); (1, q (-60)); (2, qq (-1) 25); (3, q 9) ] Le (q 0);
         c [ (0, qq 1 2); (1, q (-90)); (2, qq (-1) 50); (3, q 3) ] Le (q 0);
         c [ (2, q 1) ] Le (q 1);
       ]
       (qq (-1) 20))

let test_zero_variable_problem () =
  let p = Lp_problem.make ~nvars:1 [ c [] Le (q 3) ] in
  ignore (expect_feasible (SQ.feasible p))

let test_var_out_of_range () =
  Alcotest.check_raises "range check"
    (Invalid_argument "Lp_problem.make: variable 3 out of range") (fun () ->
      ignore (Lp_problem.make ~nvars:2 [ c [ (3, q 1) ] Le (q 1) ]))

let test_float_instance_agrees () =
  let rows =
    [ c [ (0, 1.) ] Le 4.; c [ (1, 2.) ] Le 12.; c [ (0, 3.); (1, 2.) ] Le 18. ]
  in
  let at z = SF.feasible (Lp_problem.make ~nvars:2 (rows @ [ c [ (0, 3.); (1, 5.) ] Ge z ])) in
  (match at 36. with
  | SF.Feasible s ->
      Alcotest.(check (float 1e-6)) "x" 2. s.x.(0);
      Alcotest.(check (float 1e-6)) "y" 6. s.x.(1)
  | SF.Infeasible_certificate _ -> Alcotest.fail "float instance: expected feasible at 36");
  match at 36.001 with
  | SF.Infeasible_certificate y ->
      Alcotest.(check bool) "float ray" true
        (SF.check_farkas
           (Lp_problem.make ~nvars:2 (rows @ [ c [ (0, 3.); (1, 5.) ] Ge 36.001 ]))
           y)
  | SF.Feasible _ -> Alcotest.fail "float instance: expected infeasible past 36"

(* Near-ties within the float tolerance break like exact ties: Dantzig's
   rule enters the earlier of two columns whose reduced costs differ by
   10⁻¹³.  From the all-artificial basis of x + (1 + 10⁻¹³)·y ≥ 1 the
   reduced costs are −1 for x and −1 − 10⁻¹³ for y; a tolerance-free
   compare would enter y. *)
let test_float_near_tie () =
  let p =
    Lp_problem.make ~nvars:2 [ c [ (0, 1.); (1, 1. +. 1e-13) ] Ge 1. ]
  in
  match SF.feasible p with
  | SF.Feasible s ->
      Alcotest.(check (list bool)) "earlier column enters" [ true; false ] (Array.to_list s.basic)
  | SF.Infeasible_certificate _ -> Alcotest.fail "expected feasible"

(* Property: solutions of randomly generated feasible systems actually
   satisfy the constraints, and systems infeasible by construction are
   reported as such. *)

let random_lp =
  let gen =
    QCheck.Gen.(
      let* nvars = int_range 1 6 in
      let* nrows = int_range 1 6 in
      let* x0 = list_size (return nvars) (int_range 0 10) in
      let* rows =
        list_size (return nrows) (list_size (return nvars) (int_range (-4) 6))
      in
      let* slacks = list_size (return nrows) (int_range 0 5) in
      return (nvars, x0, rows, slacks))
  in
  QCheck.make
    ~print:(fun (nv, x0, rows, _) ->
      Printf.sprintf "nvars=%d x0=[%s] rows=%d" nv
        (String.concat ";" (List.map string_of_int x0))
        (List.length rows))
    gen

(* { A x <= b } with b := A x0 + slack, feasible at x0. *)
let constructed conv (_, x0, rows, slacks) =
  List.map2
    (fun row slack ->
      let b = List.fold_left2 (fun acc a x -> acc + (a * x)) slack row x0 in
      c (List.mapi (fun i a -> (i, conv a)) row) Le (conv b))
    rows slacks

let satisfies (p : Q.t Lp_problem.t) (x : Q.t array) =
  Array.for_all (fun v -> Q.sign v >= 0) x
  && List.for_all
       (fun (ct : Q.t Lp_problem.constr) ->
         let lhs = dot ct.terms x in
         match ct.rel with
         | Le -> Q.leq lhs ct.rhs
         | Ge -> Q.geq lhs ct.rhs
         | Eq -> Q.equal lhs ct.rhs)
       p.constrs

let prop_feasible_by_construction =
  QCheck.Test.make ~name:"constructed-feasible systems solved" ~count:200 random_lp
    (fun ((nvars, _, _, _) as lp) ->
      let p = Lp_problem.make ~nvars (constructed q lp) in
      match SQ.feasible p with
      | SQ.Infeasible_certificate _ -> false
      | SQ.Feasible s -> satisfies p s.x)

let prop_infeasible_by_construction =
  QCheck.Test.make ~name:"constructed-infeasible systems rejected" ~count:200
    (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 1 20))
    (fun (nvars, gap) ->
      (* sum x <= k and sum x >= k + gap is infeasible. *)
      let terms = List.init nvars (fun i -> (i, q 1)) in
      let p =
        Lp_problem.make ~nvars [ c terms Le (q 7); c terms Ge (q (7 + gap)) ]
      in
      match SQ.feasible p with SQ.Feasible _ -> false | SQ.Infeasible_certificate _ -> true)

let test_farkas_certificate () =
  let p =
    Lp_problem.make ~nvars:2
      [ c [ (0, q 1); (1, q 1) ] Le (q 1); c [ (0, q 1); (1, q 1) ] Ge (q 3) ]
  in
  match SQ.feasible p with
  | SQ.Feasible _ -> Alcotest.fail "expected infeasible"
  | SQ.Infeasible_certificate y ->
      Alcotest.(check bool) "certificate validates" true (SQ.check_farkas p y);
      (* tampering must break it *)
      let bad = Array.map (fun v -> Q.neg v) y in
      Alcotest.(check bool) "tampered certificate rejected" false (SQ.check_farkas p bad)

let test_farkas_on_feasible () =
  let p = Lp_problem.make ~nvars:1 [ c [ (0, q 1) ] Le (q 5) ] in
  match SQ.feasible p with
  | SQ.Feasible s -> Alcotest.(check bool) "x within bound" true (Q.leq s.x.(0) (q 5))
  | SQ.Infeasible_certificate _ -> Alcotest.fail "expected feasible"

let prop_infeasible_always_certified =
  QCheck.Test.make ~name:"infeasible systems carry a valid Farkas witness" ~count:200
    (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 1 20))
    (fun (nvars, gap) ->
      let terms = List.init nvars (fun i -> (i, q 1)) in
      let p =
        Lp_problem.make ~nvars [ c terms Le (q 7); c terms Ge (q (7 + gap)) ]
      in
      match SQ.feasible p with
      | SQ.Feasible _ -> false
      | SQ.Infeasible_certificate y -> SQ.check_farkas p y)

let prop_verdicts_certified =
  QCheck.Test.make ~name:"every verdict carries a point or a Farkas ray" ~count:150
    random_lp (fun ((nvars, x0, _, _) as lp) ->
      (* Mix in a >= row that may or may not be satisfiable. *)
      let extra = c (List.init nvars (fun i -> (i, q 1))) Ge (q (List.fold_left ( + ) 0 x0)) in
      let p = Lp_problem.make ~nvars (extra :: constructed q lp) in
      match SQ.feasible p with
      | SQ.Feasible s -> satisfies p s.x
      | SQ.Infeasible_certificate y -> SQ.check_farkas p y)

(* An optimum's certificate in feasibility terms.  On min c·x, the ray of
   the rows plus the last-row cut c·x ≤ z* − 1/1000 prices that cut at
   some −λ < 0 (the rows alone are feasible), and its other entries over
   λ are LP duals: their objective lies in (z* − 1/1000, z*]. *)
let dual_objective (p : Q.t Lp_problem.t) y =
  let last = Array.length y - 1 in
  let lambda = Q.neg y.(last) in
  if Q.sign lambda <= 0 then None
  else
    let yb =
      List.filteri (fun i _ -> i < last) p.constrs
      |> List.mapi (fun i (ct : Q.t Lp_problem.constr) -> Q.mul y.(i) ct.rhs)
      |> List.fold_left Q.add Q.zero
    in
    Some (Q.div yb lambda)

let past_optimum ~nvars obj rows z =
  Lp_problem.make ~nvars (rows @ [ c obj Le (Q.sub z (qq 1 1000)) ])

let certifies_optimum ~nvars obj rows z =
  let past = past_optimum ~nvars obj rows z in
  match SQ.feasible past with
  | SQ.Feasible _ -> false
  | SQ.Infeasible_certificate y -> (
      SQ.check_farkas past y
      &&
      match dual_objective past y with
      | Some d -> Q.gt d (Q.sub z (qq 1 1000)) && Q.leq d z
      | None -> false)

let test_optimality_certificate () =
  (* min 2x+3y st x+y>=4, x>=1: optimum 8 at (4,0); the ray past 8 must
     carry duals that certify it. *)
  let obj = [ (0, q 2); (1, q 3) ] in
  let rows = [ c [ (0, q 1); (1, q 1) ] Ge (q 4); c [ (0, q 1) ] Ge (q 1) ] in
  ignore (at_optimum ~nvars:2 obj rows (q 8));
  Alcotest.(check bool) "duals certify" true (certifies_optimum ~nvars:2 obj rows (q 8));
  let past = past_optimum ~nvars:2 obj rows (q 8) in
  match SQ.feasible past with
  | SQ.Feasible _ -> Alcotest.fail "expected infeasible past the optimum"
  | SQ.Infeasible_certificate y ->
      (* dropping the cut's multiplier keeps every row sense but must
         break verification: the rows alone are feasible *)
      let bad = Array.mapi (fun i v -> if i = Array.length y - 1 then Q.zero else v) y in
      Alcotest.(check bool) "tampered ray rejected" false (SQ.check_farkas past bad)

let prop_certified_optimum =
  QCheck.Test.make ~name:"optimality certificates verify" ~count:150 random_lp
    (fun ((nvars, _, _, _) as lp) ->
      (* minimise a non-negative cost over the (nonempty) region, with
         its optimum from the dense tableau oracle *)
      let obj = List.init nvars (fun i -> (i, q (1 + (i mod 3)))) in
      let rows = constructed q lp in
      match Dense_oracle.solve ~maximize:false (Lp_problem.make ~nvars ~objective:obj rows) with
      | Dense_oracle.Optimal o -> (
          certifies_optimum ~nvars obj rows o.objective
          &&
          match SQ.feasible (Lp_problem.make ~nvars (rows @ [ c obj Le o.objective ])) with
          | SQ.Feasible s -> Q.equal (dot obj s.x) o.objective
          | SQ.Infeasible_certificate _ -> false)
      | Dense_oracle.Infeasible -> false (* feasible by construction *)
      | Dense_oracle.Unbounded -> false (* cost bounded below by 0 *))

(* The boxed all-ones LPs below, with their exact optimum from the dense
   tableau oracle when it has one. *)
let boxed ~bound ((nvars, _, _, _) as lp) =
  let box = List.init nvars (fun i -> c [ (i, q 1) ] Le (q bound)) in
  let obj = List.init nvars (fun i -> (i, q 1)) in
  let p = Lp_problem.make ~nvars ~objective:obj (constructed q lp @ box) in
  let z =
    match Dense_oracle.solve ~maximize:true p with
    | Dense_oracle.Optimal o -> Some o.objective
    | Dense_oracle.Infeasible | Dense_oracle.Unbounded -> None
  in
  (p, obj, z)

let pins (p : Q.t Lp_problem.t) obj z =
  let at v = Lp_problem.make ~nvars:p.nvars (p.constrs @ [ c obj Ge v ]) in
  (at z, at (Q.add z (qq 1 1000)))

let verdict ?pricing p =
  match SQ.feasible ?pricing p with SQ.Feasible _ -> true | SQ.Infeasible_certificate _ -> false

let prop_cut_through_known_point =
  QCheck.Test.make ~name:"a cut through a known point stays feasible" ~count:100 random_lp
    (fun ((nvars, x0, _, _) as lp) ->
      (* Σx ≤ Σx0 holds at x0, which the box admits when x0 ≤ 1000. *)
      let box = List.init nvars (fun i -> c [ (i, q 1) ] Le (q 1000)) in
      let through = c (List.init nvars (fun i -> (i, q 1))) Le (q (List.fold_left ( + ) 0 x0)) in
      let p = Lp_problem.make ~nvars ((through :: constructed q lp) @ box) in
      verdict p || List.exists (fun x -> x > 1000) x0)

let prop_pricing_rules_agree =
  (* Bland and Dantzig must reach the same optimum (possibly via
     different vertices): both find the cut at z* feasible and the one
     just past it infeasible. *)
  QCheck.Test.make ~name:"Bland and Dantzig agree on the optimum" ~count:150 random_lp
    (fun lp ->
      match boxed ~bound:100 lp with
      | p, _, None -> (not (verdict ~pricing:SQ.Bland p)) && not (verdict ~pricing:SQ.Dantzig p)
      | p, obj, Some z ->
          let at, past = pins p obj z in
          List.for_all
            (fun pricing -> verdict ~pricing at && not (verdict ~pricing past))
            [ SQ.Bland; SQ.Dantzig ])

let prop_float_matches_exact_verdicts =
  (* The float instantiation must reach the exact verdicts on the pins
     of well-conditioned random instances. *)
  QCheck.Test.make ~name:"float verdicts track exact verdicts" ~count:100 random_lp
    (fun lp ->
      let p, obj, z = boxed ~bound:50 lp in
      let float_verdict (p : Q.t Lp_problem.t) =
        let fp =
          Lp_problem.make ~nvars:p.nvars
            (List.map
               (fun (ct : Q.t Lp_problem.constr) ->
                 c (List.map (fun (v, k) -> (v, Q.to_float k)) ct.terms) ct.rel (Q.to_float ct.rhs))
               p.constrs)
        in
        match SF.feasible fp with SF.Feasible _ -> true | SF.Infeasible_certificate _ -> false
      in
      match z with
      | None -> not (float_verdict p)
      | Some z ->
          let at, past = pins p obj z in
          float_verdict at && not (float_verdict past))

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let qt t = QCheck_alcotest.to_alcotest t in
  ( "simplex",
    [
      u "textbook max" test_textbook_max;
      u "min with >=" test_min_with_ge;
      u "infeasible" test_infeasible;
      u "unbounded" test_unbounded;
      u "fractional vertex" test_fractional_vertex;
      u "negative rhs" test_negative_rhs_normalisation;
      u "redundant equalities" test_redundant_equalities;
      u "duplicate terms" test_duplicate_terms;
      u "degenerate (anti-cycling)" test_degenerate_cycling_guard;
      u "zero-variable row" test_zero_variable_problem;
      u "variable range check" test_var_out_of_range;
      u "float instance" test_float_instance_agrees;
      u "float near-tie enters the earlier column" test_float_near_tie;
      u "Farkas certificate" test_farkas_certificate;
      u "Farkas on feasible" test_farkas_on_feasible;
      qt prop_infeasible_always_certified;
      qt prop_verdicts_certified;
      u "optimality certificate" test_optimality_certificate;
      qt prop_certified_optimum;
      qt prop_pricing_rules_agree;
      qt prop_float_matches_exact_verdicts;
      qt prop_feasible_by_construction;
      qt prop_infeasible_by_construction;
      qt prop_cut_through_known_point;
    ] )

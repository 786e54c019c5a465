(* Unit and property tests for the exact rational field. *)

module Q = Hs_numeric.Q
module B = Hs_numeric.Bigint

let qi = Q.of_int
let qq = Q.of_ints

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

let test_normalisation () =
  check_q "2/4 = 1/2" (qq 1 2) (qq 2 4);
  check_q "-2/-4 = 1/2" (qq 1 2) (qq (-2) (-4));
  check_q "2/-4 = -1/2" (qq (-1) 2) (qq 2 (-4));
  check_q "0/7 = 0" Q.zero (qq 0 7);
  Alcotest.(check string) "den positive" "2" (B.to_string (Q.den (qq 3 (-2))));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () -> ignore (qq 1 0))

let test_arithmetic () =
  check_q "1/3 + 1/6" (qq 1 2) (Q.add (qq 1 3) (qq 1 6));
  check_q "1/2 - 1/3" (qq 1 6) (Q.sub (qq 1 2) (qq 1 3));
  check_q "2/3 * 3/4" (qq 1 2) (Q.mul (qq 2 3) (qq 3 4));
  check_q "(1/2) / (3/4)" (qq 2 3) (Q.div (qq 1 2) (qq 3 4));
  check_q "inv(-2/3)" (qq (-3) 2) (Q.inv (qq (-2) 3));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  check_q "0 / (-3/4) = 0" Q.zero (Q.div Q.zero (qq (-3) 4));
  Alcotest.check_raises "0 / 0" Division_by_zero (fun () -> ignore (Q.div Q.zero Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rounding () =
  let fl x = B.to_int_exn (Q.floor x) and ce x = B.to_int_exn (Q.ceil x) in
  Alcotest.(check int) "floor 7/2" 3 (fl (qq 7 2));
  Alcotest.(check int) "ceil 7/2" 4 (ce (qq 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (fl (qq (-7) 2));
  Alcotest.(check int) "ceil -7/2" (-3) (ce (qq (-7) 2));
  Alcotest.(check int) "floor 3" 3 (fl (qi 3));
  Alcotest.(check int) "ceil 3" 3 (ce (qi 3));
  Alcotest.(check int) "floor_int" 1 (Q.floor_int (qq 5 3));
  Alcotest.(check int) "ceil_int" 2 (Q.ceil_int (qq 5 3))

let test_of_string () =
  check_q "int" (qi 42) (Q.of_string "42");
  check_q "ratio" (qq 2 3) (Q.of_string "4/6");
  check_q "decimal" (qq 5 4) (Q.of_string "1.25");
  check_q "neg decimal" (qq (-5) 4) (Q.of_string "-1.25");
  check_q "leading dot" (qq 1 4) (Q.of_string "0.25")

let test_ordering () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.lt (qq 1 3) (qq 1 2));
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.lt (qq (-1) 2) (qq 1 3));
  Alcotest.(check bool) "leq refl" true (Q.leq (qq 2 4) (qq 1 2));
  check_q "min" (qq 1 3) (Q.min (qq 1 3) (qq 1 2));
  check_q "max" (qq 1 2) (Q.max (qq 1 3) (qq 1 2))

let test_infix () =
  let open Q.Infix in
  Alcotest.(check bool) "infix expr" true (qq 1 2 + qq 1 3 = qq 5 6);
  Alcotest.(check bool) "infix order" true (qq 1 2 * qq 1 2 < qq 1 2)

(* Past the float range on both sides the naive quotient is inf/inf. *)
let test_to_float_huge () =
  let p1100 = B.pow (B.of_int 2) 1100 in
  let close msg expected x =
    Alcotest.(check (float 1e-12)) msg 1.0 (Q.to_float x /. expected)
  in
  close "(2^1100+1)/2^1100" 1.0 (Q.make (B.add p1100 B.one) p1100);
  close "3*2^1100/(2*2^1100+1)" 1.5 (Q.make (B.mul_int p1100 3) (B.add (B.mul_int p1100 2) B.one));
  close "-(2^1100+1)/2^1100" (-1.0) (Q.make (B.neg (B.add p1100 B.one)) p1100);
  close "(2^1100+1)/2^150 = 2^950" (Float.ldexp 1.0 950)
    (Q.make (B.add p1100 B.one) (B.pow (B.of_int 2) 150));
  Alcotest.(check (float 0.)) "2^1100/3 overflows" Float.infinity (Q.to_float (Q.make p1100 (B.of_int 3)));
  Alcotest.(check (float 0.)) "3/2^1100 underflows" 0.0 (Q.to_float (Q.make (B.of_int 3) p1100))

(* Only results that outgrow the immediate tier touch the counter. *)
let test_promotions () =
  let promotions = Hs_obs.Metrics.counter "numeric.q.promotions" in
  let count f =
    let before = Hs_obs.Metrics.value promotions in
    ignore (f ());
    Hs_obs.Metrics.value promotions - before
  in
  let edge = qi ((1 lsl 30) - 1) in
  Alcotest.(check int) "small ops" 0
    (count (fun () -> Q.add (qq 1 3) (Q.div (qq (-5) 9) (Q.mul (qq 2 11) (qq 3 7)))));
  Alcotest.(check int) "2^30 - 1 stays small" 0 (count (fun () -> Q.add (Q.sub edge Q.one) Q.one));
  Alcotest.(check int) "of_int 2^30" 1 (count (fun () -> qi (1 lsl 30)));
  Alcotest.(check int) "product past 2^30" 1 (count (fun () -> Q.mul edge edge));
  let big = Q.mul edge edge in
  let big' = Q.sub big Q.one in
  Alcotest.(check int) "big minus big demotes" 0 (count (fun () -> Q.sub big big'))

let rational =
  let gen =
    QCheck.Gen.(
      map2
        (fun n d -> Q.of_ints n (if d = 0 then 1 else d))
        (int_range (-10000) 10000) (int_range (-100) 100))
  in
  QCheck.make ~print:Q.to_string gen

let triple = QCheck.triple rational rational rational

let prop_field_axioms =
  QCheck.Test.make ~name:"field axioms" ~count:1000 triple (fun (a, b, c) ->
      Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c)
      && Q.equal (Q.mul a (Q.mul b c)) (Q.mul (Q.mul a b) c)
      && Q.equal (Q.add a b) (Q.add b a)
      && Q.equal (Q.mul a b) (Q.mul b a)
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c))
      && Q.equal (Q.add a (Q.neg a)) Q.zero
      && (Q.is_zero a || Q.equal (Q.mul a (Q.inv a)) Q.one))

let prop_canonical =
  QCheck.Test.make ~name:"canonical form" ~count:1000 rational (fun a ->
      B.sign (Q.den a) > 0 && B.equal (B.gcd (Q.num a) (Q.den a)) B.one
      || (Q.is_zero a && B.equal (Q.den a) B.one))

let prop_order_compatible =
  QCheck.Test.make ~name:"order compatible with add" ~count:1000 triple
    (fun (a, b, c) -> not (Q.lt a b) || Q.lt (Q.add a c) (Q.add b c))

let prop_floor_ceil =
  QCheck.Test.make ~name:"floor/ceil bracket" ~count:1000 rational (fun a ->
      let f = Q.of_bigint (Q.floor a) and c = Q.of_bigint (Q.ceil a) in
      Q.leq f a && Q.leq a c
      && Q.lt a (Q.add f Q.one)
      && Q.lt (Q.sub c Q.one) a)

let prop_to_float_close =
  QCheck.Test.make ~name:"to_float approximates" ~count:500 rational (fun a ->
      Float.abs (Q.to_float a -. (B.to_float (Q.num a) /. B.to_float (Q.den a))) < 1e-9)

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let q t = QCheck_alcotest.to_alcotest t in
  ( "q",
    [
      u "normalisation" test_normalisation;
      u "arithmetic" test_arithmetic;
      u "rounding" test_rounding;
      u "of_string" test_of_string;
      u "ordering" test_ordering;
      u "infix" test_infix;
      u "to_float on huge operands" test_to_float_huge;
      u "promotion counter" test_promotions;
      q prop_field_axioms;
      q prop_canonical;
      q prop_order_compatible;
      q prop_floor_ceil;
      q prop_to_float_close;
    ] )

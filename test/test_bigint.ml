(* Unit and property tests for the arbitrary-precision integers. *)

module B = Hs_numeric.Bigint

let bi = B.of_int
let bs = B.of_string

let check_b msg expected actual =
  Alcotest.(check string) msg (B.to_string expected) (B.to_string actual)

let test_constants () =
  Alcotest.(check string) "zero" "0" (B.to_string B.zero);
  Alcotest.(check string) "one" "1" (B.to_string B.one);
  Alcotest.(check string) "minus_one" "-1" (B.to_string B.minus_one);
  Alcotest.(check int) "sign zero" 0 (B.sign B.zero);
  Alcotest.(check bool) "is_zero" true (B.is_zero B.zero);
  Alcotest.(check bool) "invariants" true
    (List.for_all B.check_invariant [ B.zero; B.one; B.minus_one ])

let test_of_int_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check (option int)) (string_of_int k) (Some k) (B.to_int (bi k)))
    [ 0; 1; -1; 42; -42; max_int; min_int; max_int - 1; min_int + 1; 1 lsl 40 ]

let test_min_int_magnitude () =
  (* |min_int| is not representable as an int; the bigint must carry it. *)
  check_b "neg min_int" (B.neg (bi min_int)) (bs "4611686018427387904");
  Alcotest.(check (option int)) "overflow detected" None (B.to_int (B.neg (bi min_int)))

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (bs s)))
    [
      "0";
      "7";
      "-7";
      "123456789";
      "10000000000000000000000000000000001";
      "-99999999999999999999999999999999999999999999";
    ]

let test_of_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Bigint.of_string: invalid digit")
        (fun () -> ignore (bs s)))
    [ "12a"; "1.5"; "--2" ];
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (bs ""))

let test_factorial () =
  let rec fact n = if n = 0 then B.one else B.mul (bi n) (fact (n - 1)) in
  check_b "25!" (fact 25) (bs "15511210043330985984000000");
  check_b "50!" (fact 50)
    (bs "30414093201713378043612608166064768844377641568960512000000000000")

let test_division_cases () =
  (* 10^21 = 10^9 * 999999999999 + 10^9 *)
  let q, r = B.divmod (bs "1000000000000000000000") (bs "999999999999") in
  check_b "quot" (bs "1000000000") q;
  check_b "rem" (bs "1000000000") r;
  (* truncation towards zero with signs *)
  let q, r = B.divmod (bi (-7)) (bi 2) in
  Alcotest.(check int) "q(-7/2)" (-3) (B.to_int_exn q);
  Alcotest.(check int) "r(-7/2)" (-1) (B.to_int_exn r);
  Alcotest.(check int) "fdiv(-7,2)" (-4) (B.to_int_exn (B.fdiv (bi (-7)) (bi 2)));
  Alcotest.(check int) "cdiv(-7,2)" (-3) (B.to_int_exn (B.cdiv (bi (-7)) (bi 2)));
  Alcotest.(check int) "fdiv(7,2)" 3 (B.to_int_exn (B.fdiv (bi 7) (bi 2)));
  Alcotest.(check int) "cdiv(7,2)" 4 (B.to_int_exn (B.cdiv (bi 7) (bi 2)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_gcd () =
  Alcotest.(check int) "gcd(12,18)" 6 (B.to_int_exn (B.gcd (bi 12) (bi 18)));
  Alcotest.(check int) "gcd(-12,18)" 6 (B.to_int_exn (B.gcd (bi (-12)) (bi 18)));
  Alcotest.(check int) "gcd(0,5)" 5 (B.to_int_exn (B.gcd B.zero (bi 5)));
  Alcotest.(check int) "gcd(0,0)" 0 (B.to_int_exn (B.gcd B.zero B.zero))

let test_pow () =
  check_b "2^100" (B.pow (bi 2) 100) (bs "1267650600228229401496703205376");
  check_b "x^0" (B.pow (bi 12345) 0) B.one;
  Alcotest.check_raises "neg exponent" (Invalid_argument "Bigint.pow: negative exponent")
    (fun () -> ignore (B.pow (bi 2) (-1)))

let test_to_float () =
  Alcotest.(check (float 1e-6)) "to_float" 1e20 (B.to_float (bs "100000000000000000000"))

let test_numbits_shift () =
  List.iter
    (fun (x, bits) -> Alcotest.(check int) ("numbits " ^ B.to_string x) bits (B.numbits x))
    [ (B.zero, 0); (B.one, 1); (bi (-5), 3); (bi (1 lsl 24), 25); (B.pow (bi 2) 100, 101) ];
  check_b "2^100+7 >> 60" (B.pow (bi 2) 40) (B.shift_right (B.add (B.pow (bi 2) 100) (bi 7)) 60);
  check_b "-7 >> 1 truncates" (bi (-3)) (B.shift_right (bi (-7)) 1);
  check_b "shift past the top" B.zero (B.shift_right (bi 12345) 48);
  Alcotest.check_raises "negative shift" (Invalid_argument "Bigint.shift_right: negative shift")
    (fun () -> ignore (B.shift_right B.one (-1)))

(* Properties *)

let small_int = QCheck.int_range (-1_000_000_000) 1_000_000_000

let big_pair =
  (* Pairs of multi-limb integers built from strings of random digits. *)
  let gen =
    QCheck.Gen.(
      let digits = map (fun l -> List.map (fun d -> Char.chr (d + Char.code '0')) l)
          (list_size (int_range 1 40) (int_range 0 9)) in
      let bigint =
        map2
          (fun neg ds ->
            let s = String.init (List.length ds) (List.nth ds) in
            let s = if s = "" then "0" else s in
            B.of_string (if neg then "-" ^ s else s))
          bool digits
      in
      pair bigint bigint)
  in
  QCheck.make ~print:(fun (a, b) -> B.to_string a ^ ", " ^ B.to_string b) gen

let prop_add_matches_int =
  QCheck.Test.make ~name:"add matches int" ~count:2000
    (QCheck.pair small_int small_int) (fun (a, b) ->
      B.to_int_exn (B.add (bi a) (bi b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"mul matches int" ~count:2000
    (QCheck.pair small_int small_int) (fun (a, b) ->
      B.to_int_exn (B.mul (bi a) (bi b)) = a * b)

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"divmod matches int" ~count:2000
    (QCheck.pair small_int small_int) (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = B.divmod (bi a) (bi b) in
      B.to_int_exn q = a / b && B.to_int_exn r = a mod b)

let prop_divmod_invariant =
  QCheck.Test.make ~name:"big divmod invariant" ~count:500 big_pair (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.check_invariant q && B.check_invariant r
      && B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

let prop_mul_div_cancel =
  QCheck.Test.make ~name:"(a*b)/b = a" ~count:500 big_pair (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod (B.mul a b) b in
      B.equal q a && B.is_zero r)

let huge_triple =
  (* Operands of ~300-700 decimal digits: deep in Karatsuba territory
     (the schoolbook/Karatsuba switch is at 24 limbs ≈ 170 digits). *)
  let gen =
    QCheck.Gen.(
      let digits n = map (fun l -> String.concat "" (List.map string_of_int l))
          (list_size (return n) (int_range 0 9)) in
      let* n1 = int_range 300 700 in
      let* n2 = int_range 300 700 in
      let* n3 = int_range 1 400 in
      let* s1 = digits n1 and* s2 = digits n2 and* s3 = digits n3 in
      let* neg1 = bool and* neg2 = bool in
      let mk neg s = B.of_string ((if neg then "-" else "") ^ "1" ^ s) in
      return (mk neg1 s1, mk neg2 s2, mk false s3))
  in
  QCheck.make ~print:(fun (a, b, c) ->
      Printf.sprintf "%d/%d/%d digits" (String.length (B.to_string a))
        (String.length (B.to_string b)) (String.length (B.to_string c)))
    gen

let prop_karatsuba_vs_division =
  QCheck.Test.make ~name:"huge mul consistent with division" ~count:50 huge_triple
    (fun (a, b, _) ->
      let p = B.mul a b in
      let q1, r1 = B.divmod p a in
      let q2, r2 = B.divmod p b in
      B.check_invariant p
      && B.equal q1 b && B.is_zero r1
      && B.equal q2 a && B.is_zero r2)

let prop_karatsuba_distributive =
  QCheck.Test.make ~name:"huge mul distributes over add" ~count:50 huge_triple
    (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c))
      && B.equal (B.mul (B.add b c) a) (B.mul a (B.add b c)))

let prop_karatsuba_square_identity =
  QCheck.Test.make ~name:"(a+b)(a-b) = a^2 - b^2 on huge operands" ~count:50
    huge_triple (fun (a, b, _) ->
      B.equal
        (B.mul (B.add a b) (B.sub a b))
        (B.sub (B.mul a a) (B.mul b b)))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:500 big_pair (fun (a, _) ->
      B.equal a (B.of_string (B.to_string a)))

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare consistent with sub" ~count:500 big_pair
    (fun (a, b) -> compare (B.compare a b) 0 = compare (B.sign (B.sub a b)) 0)

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:300 big_pair (fun (a, b) ->
      QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
      let g = B.gcd a b in
      B.sign g > 0 && B.is_zero (B.rem a g) && B.is_zero (B.rem b g))

let prop_shift_right_is_div =
  QCheck.Test.make ~name:"shift_right is division by 2^k" ~count:500
    (QCheck.pair big_pair (QCheck.int_range 0 150)) (fun ((a, _), k) ->
      let bits = B.numbits a in
      B.equal (B.shift_right a k) (B.div a (B.pow (bi 2) k))
      && B.is_zero (B.shift_right a bits)
      && (bits = 0 || not (B.is_zero (B.shift_right a (bits - 1)))))

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let q t = QCheck_alcotest.to_alcotest t in
  ( "bigint",
    [
      u "constants" test_constants;
      u "of_int roundtrip" test_of_int_roundtrip;
      u "min_int magnitude" test_min_int_magnitude;
      u "string roundtrip" test_string_roundtrip;
      u "of_string invalid" test_of_string_invalid;
      u "factorial" test_factorial;
      u "division cases" test_division_cases;
      u "gcd" test_gcd;
      u "pow" test_pow;
      u "to_float" test_to_float;
      u "numbits/shift_right" test_numbits_shift;
      q prop_add_matches_int;
      q prop_mul_matches_int;
      q prop_divmod_matches_int;
      q prop_divmod_invariant;
      q prop_mul_div_cancel;
      q prop_karatsuba_vs_division;
      q prop_karatsuba_distributive;
      q prop_karatsuba_square_identity;
      q prop_string_roundtrip;
      q prop_compare_total_order;
      q prop_gcd_divides;
      q prop_shift_right_is_div;
    ] )

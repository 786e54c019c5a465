(* Differential suite: the two-tier Hs_numeric.Q against Q_ref, the
   Bigint-only rationals it replaced.  Operands concentrate where the
   tiers meet: magnitudes around 2^30, products that cross 2^60, the
   native limits min_int/max_int, and 2^62, the first magnitude no
   native int holds.  Every result must equal the reference's
   component for component, so a value that fits the immediate tier is
   also checked to be stored there (see "canonical form").

   With QCHECK_LONG=1 each property draws 100 times its usual count:
   QCHECK_LONG=1 dune exec test/test_main.exe -- test q_diff *)

module Q = Hs_numeric.Q
module R = Q_ref
module B = Hs_numeric.Bigint
module G = QCheck.Gen

let p30 = 1 lsl 30
let two62 = B.neg (B.of_int min_int)

let magnitude =
  let near k = G.map (fun off -> k + off) (G.int_range (-2) 2) in
  G.frequency
    [
      (3, G.int_range 0 12);
      (4, near (p30 - 1));
      (2, near (1 lsl 31));
      (2, G.int_range 0 (4 * p30));
      (1, near (1 lsl 61));
      (1, near (max_int - 2));
      (1, G.map (fun k -> k land max_int) G.int);
    ]

let native =
  G.frequency
    [ (12, G.map2 (fun neg m -> if neg then -m else m) G.bool magnitude); (1, G.return min_int) ]

let bigint =
  let around_2_62 = G.map (fun k -> B.add two62 (B.of_int k)) (G.int_range (-2) 2) in
  G.frequency
    [
      (6, G.map B.of_int native);
      (2, G.map2 (fun a b -> B.mul (B.of_int a) (B.of_int b)) native native);
      (1, around_2_62);
      (1, G.map B.neg around_2_62);
    ]

let nonzero = G.map (fun b -> if B.is_zero b then B.one else b) bigint

(* One rational built by both implementations from the same components,
   Q through a constructor picked at random, so operands reach each tier
   by every route. *)
let build route n d =
  let r = R.make n d in
  let q =
    match (route, B.to_int n, B.to_int d) with
    | 0, Some a, Some b -> Q.of_ints a b
    | 1, _, _ -> Q.of_string (R.to_string r)
    | 2, _, _ -> Q.div (Q.of_bigint n) (Q.of_bigint d)
    | _ -> Q.make n d
  in
  (q, r)

let component = G.triple (G.int_bound 3) bigint nonzero
let show (q, r) = Printf.sprintf "%s (ref %s)" (Q.to_string q) (R.to_string r)
let pair = QCheck.make ~print:show (G.map (fun (route, n, d) -> build route n d) component)

(* Pairs come three ways.  Independent.  Sharing a denominator
   (numerators k*d+1 are coprime to d), the case add, sub and compare
   take without cross products.  Or clustered: all four components just
   below one power of two 2^29..2^32, so cross products and their sums
   land right at 2^60..2^64, where a wrong tier bound would wrap. *)
let two =
  let clustered =
    G.(
      int_range 29 32 >>= fun k ->
      let below = map (fun off -> (1 lsl k) - off) (int_range 1 3) in
      let part = map2 (fun neg m -> B.of_int (if neg then -m else m)) bool below in
      let pos = map B.abs part in
      map2 (fun (r1, n1, d1) (r2, n2, d2) -> (build r1 n1 d1, build r2 n2 d2))
        (triple (int_bound 3) part pos) (triple (int_bound 3) part pos))
  in
  let shared =
    G.map2
      (fun (r1, n1, d) (r2, n2, _) ->
        let over_d n = B.add (B.mul n d) B.one in
        (build r1 (over_d n1) d, build r2 (over_d n2) d))
      component component
  in
  let independent =
    G.map2 (fun (r1, n1, d1) (r2, n2, d2) -> (build r1 n1 d1, build r2 n2 d2)) component component
  in
  QCheck.make ~print:QCheck.Print.(pair show show) (G.oneof [ independent; shared; clustered ])

let three = QCheck.triple pair pair pair

let agree q r = B.equal (Q.num q) (R.num r) && B.equal (Q.den q) (R.den r)

(* Both raise the same exception, or both agree on the result. *)
let same f g eq =
  match f () with
  | a -> ( match g () with b -> eq a b | exception _ -> false)
  | exception e -> ( match g () with _ -> false | exception e' -> e = e')

let prop name arb f = QCheck.Test.make ~name ~count:1000 ~long_factor:100 arb f

let prop_make =
  prop "make/num/den match" (QCheck.pair (QCheck.make bigint) (QCheck.make nonzero)) (fun (n, d) ->
      agree (Q.make n d) (R.make n d) && agree (Q.of_bigint n) (R.of_bigint n))

let prop_of_int =
  prop "of_int/of_ints match at the native limits" (QCheck.pair (QCheck.make native) (QCheck.make native))
    (fun (a, b) ->
      agree (Q.of_int a) (R.of_int a)
      && same (fun () -> Q.of_ints a b) (fun () -> R.of_ints a b) agree)

let prop_ring =
  prop "add/sub/mul/div match" two (fun ((q1, r1), (q2, r2)) ->
      agree (Q.add q1 q2) (R.add r1 r2)
      && agree (Q.sub q1 q2) (R.sub r1 r2)
      && agree (Q.mul q1 q2) (R.mul r1 r2)
      && same (fun () -> Q.div q1 q2) (fun () -> R.div r1 r2) agree)

let prop_unary =
  prop "neg/abs/inv match" pair (fun (q, r) ->
      agree (Q.neg q) (R.neg r)
      && agree (Q.abs q) (R.abs r)
      && same (fun () -> Q.inv q) (fun () -> R.inv r) agree)

let prop_order =
  prop "compare/equal/sign match" two (fun ((q1, r1), (q2, r2)) ->
      Int.compare (Q.compare q1 q2) 0 = Int.compare (R.compare r1 r2) 0
      && Q.equal q1 q2 = R.equal r1 r2
      && Q.sign q1 = R.sign r1
      && Q.is_integer q1 = R.is_integer r1)

let prop_rounding =
  prop "floor/ceil match" pair (fun (q, r) ->
      B.equal (Q.floor q) (R.floor r)
      && B.equal (Q.ceil q) (R.ceil r)
      && same (fun () -> Q.floor_int q) (fun () -> R.floor_int r) Int.equal
      && same (fun () -> Q.ceil_int q) (fun () -> R.ceil_int r) Int.equal)

let prop_strings =
  let digits = QCheck.make G.(pair (string_size ~gen:numeral (int_range 1 25)) bool) in
  prop "to_string/of_string match" (QCheck.pair pair digits) (fun ((q, r), (frac, neg)) ->
      let s = R.to_string r in
      let dec = (if neg then "-" else "") ^ B.to_string (B.abs (R.num r)) ^ "." ^ frac in
      String.equal (Q.to_string q) s
      && agree (Q.of_string s) (R.of_string s)
      && agree (Q.of_string dec) (R.of_string dec))

(* Bit for bit wherever the reference is defined: the float presolve and
   the pivot-row ranking must see the same numbers as before. *)
let prop_to_float =
  prop "to_float matches in float range" pair (fun (q, r) ->
      Float.equal (Q.to_float q) (R.to_float r))

(* Every route to one value must give one representation. *)
let routes n d =
  let by_ints =
    match (B.to_int n, B.to_int d) with Some a, Some b -> [ Q.of_ints a b ] | _ -> []
  in
  [
    Q.make n d;
    Q.of_string (B.to_string n ^ "/" ^ B.to_string d);
    Q.div (Q.of_bigint n) (Q.of_bigint d);
    Q.mul (Q.of_bigint n) (Q.inv (Q.of_bigint d));
  ]
  @ by_ints

let prop_canonical =
  prop "canonical form: equal iff structurally equal" (QCheck.pair three (QCheck.make component))
    (fun (((a, _), (b, _), (c, _)), (_, n, d)) ->
      let same_value x y = Q.equal x y && x = y in
      List.for_all (same_value (Q.make n d)) (routes n d)
      && Q.equal a b = (a = b)
      && same_value a (Q.sub (Q.add a c) c)
      && same_value (Q.mul a b) (Q.mul b a)
      && (Q.is_zero c || same_value a (Q.div (Q.mul a c) c))
      && same_value a (Q.make (B.mul (Q.num a) two62) (B.mul (Q.den a) two62)))

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  ( "q_diff",
    [
      q prop_make;
      q prop_of_int;
      q prop_ring;
      q prop_unary;
      q prop_order;
      q prop_rounding;
      q prop_strings;
      q prop_to_float;
      q prop_canonical;
    ] )

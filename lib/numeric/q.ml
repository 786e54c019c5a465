(* Canonical two-tier rationals; see q.mli for the invariants. *)

module B = Bigint

type t =
  | Small of int * int  (* |n| < 2^30, 0 < d < 2^30, gcd (n, d) = 1 *)
  | Big of B.t * B.t  (* coprime, d > 0, and |n| >= 2^30 or d >= 2^30 *)

let bound = 1 lsl 30
let fits n d = n < bound && n > -bound && d < bound

let promotions = Hs_obs.Metrics.counter "numeric.q.promotions"

let zero = Small (0, 1)
let one = Small (1, 1)
let minus_one = Small (-1, 1)

(* ---- normalisation: every constructor ends in one of these two -------- *)

(* Store a canonical native pair in its tier. *)
let coprime n d =
  if fits n d then Small (n, d)
  else begin
    Hs_obs.Metrics.incr promotions;
    Big (B.of_int n, B.of_int d)
  end

let big_bound = B.of_int bound
let big_neg_bound = B.of_int (-bound)

(* Store a canonical Bigint pair in its tier. *)
let of_canonical n d =
  if B.compare n big_bound < 0 && B.compare n big_neg_bound > 0 && B.compare d big_bound < 0
  then Small (B.to_int_exn n, B.to_int_exn d)
  else begin
    Hs_obs.Metrics.incr promotions;
    Big (n, d)
  end

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* [n/d] for native [d > 0] and [n <> min_int], so [abs n] cannot wrap. *)
let reduce n d =
  if d = 1 then coprime n 1
  else if n = 0 then zero
  else
    let g = gcd (abs n) d in
    if g = 1 then coprime n d else coprime (n / g) (d / g)

let make num den =
  if B.is_zero den then raise Division_by_zero;
  if B.is_zero num then zero
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    if B.equal g B.one then of_canonical num den
    else of_canonical (B.div num g) (B.div den g)
  end

let of_bigint n = of_canonical n B.one
let of_int k = coprime k 1

let of_ints a b =
  if b = 0 then raise Division_by_zero
  else if a = min_int || b = min_int then make (B.of_int a) (B.of_int b)
  else if b < 0 then reduce (-a) (-b)
  else reduce a b

(* Either tier as a Bigint pair: the slow path's operands. *)
let parts = function Small (n, d) -> (B.of_int n, B.of_int d) | Big (n, d) -> (n, d)

let num = function Small (n, _) -> B.of_int n | Big (n, _) -> n
let den = function Small (_, d) -> B.of_int d | Big (_, d) -> d
let sign = function Small (n, _) -> Int.compare n 0 | Big (n, _) -> B.sign n
let is_zero = function Small (n, _) -> n = 0 | Big _ -> false
let is_integer = function Small (_, d) -> d = 1 | Big (_, d) -> B.equal d B.one

(* ---- comparisons -------------------------------------------------------- *)

(* Small operands: each cross product is below 2^60, so none overflows. *)
let compare x y =
  match (x, y) with
  | Small (a, b), Small (c, d) -> if b = d then Int.compare a c else Int.compare (a * d) (c * b)
  | _ ->
      let sx = sign x and sy = sign y in
      if sx <> sy then Int.compare sx sy
      else
        let xn, xd = parts x and yn, yd = parts y in
        if B.equal xd yd then B.compare xn yn else B.compare (B.mul xn yd) (B.mul yn xd)

(* The form is canonical, so equal values are equal component-wise. *)
let equal x y =
  match (x, y) with
  | Small (a, b), Small (c, d) -> a = c && b = d
  | Big (a, b), Big (c, d) -> B.equal a c && B.equal b d
  | _ -> false

let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y
let leq x y = compare x y <= 0
let lt x y = compare x y < 0
let geq x y = compare x y >= 0
let gt x y = compare x y > 0

(* ---- arithmetic ----------------------------------------------------------

   On two small operands every cross product is below 2^60 and every sum
   of two below 2^61, inside the 63-bit native int: the fast path needs
   no overflow test, only a native gcd and the tier check on its result.
   Negation, absolute value and inversion keep |n| and d, hence the tier. *)

let neg = function Small (n, d) -> Small (-n, d) | Big (n, d) -> Big (B.neg n, d)
let abs = function Small (n, d) -> Small (Stdlib.abs n, d) | Big (n, d) -> Big (B.abs n, d)

let add_big x y =
  let xn, xd = parts x and yn, yd = parts y in
  if B.equal xd yd then make (B.add xn yn) xd
  else make (B.add (B.mul xn yd) (B.mul yn xd)) (B.mul xd yd)

let add x y =
  if is_zero x then y
  else if is_zero y then x
  else
    match (x, y) with
    | Small (a, b), Small (c, d) ->
        if b = d then reduce (a + c) b else reduce ((a * d) + (c * b)) (b * d)
    | _ -> add_big x y

let sub x y =
  if is_zero y then x
  else
    match (x, y) with
    | Small (a, b), Small (c, d) ->
        if b = d then reduce (a - c) b else reduce ((a * d) - (c * b)) (b * d)
    | _ -> add x (neg y)

(* Cross-reducing before multiplying leaves a coprime result. *)
let mul x y =
  if is_zero x || is_zero y then zero
  else
    match (x, y) with
    | Small (a, b), Small (c, d) ->
        let g1 = gcd (Stdlib.abs a) d and g2 = gcd (Stdlib.abs c) b in
        coprime (a / g1 * (c / g2)) (b / g2 * (d / g1))
    | _ ->
        let xn, xd = parts x and yn, yd = parts y in
        let g1 = B.gcd xn yd and g2 = B.gcd yn xd in
        of_canonical (B.mul (B.div xn g1) (B.div yn g2)) (B.mul (B.div xd g2) (B.div yd g1))

let inv = function
  | Small (0, _) -> raise Division_by_zero
  | Small (n, d) -> if n > 0 then Small (d, n) else Small (-d, -n)
  | Big (n, d) -> if B.sign n > 0 then Big (d, n) else Big (B.neg d, B.neg n)

(* (a/b) / (c/d) = (a*d) / (b*c), coprime once gcd (a, c) and gcd (b, d)
   are divided out; the sign moves from c to the numerator.  A zero
   numerator over a non-zero divisor is [zero] outright, without the
   inverse [mul x (inv y)] would build and throw away. *)
let div x y =
  match (x, y) with
  | Small (a, b), Small (c, d) when c <> 0 && a <> 0 ->
      let g1 = gcd (Stdlib.abs a) (Stdlib.abs c) and g2 = gcd b d in
      let n = a / g1 * (d / g2) and m = b / g2 * (c / g1) in
      if m < 0 then coprime (-n) (-m) else coprime n m
  | Small (0, _), _ when not (is_zero y) -> zero
  | _ -> mul x (inv y)

let mul_int x k = mul x (of_int k)
let div_int x k = div x (of_int k)

(* ---- rounding and conversions ------------------------------------------- *)

(* Native [/] truncates towards zero; [d > 0] fixes the correction's sign. *)
let floor_small n d = if n mod d < 0 then (n / d) - 1 else n / d
let ceil_small n d = if n mod d > 0 then (n / d) + 1 else n / d

let floor = function Small (n, d) -> B.of_int (floor_small n d) | Big (n, d) -> B.fdiv n d
let ceil = function Small (n, d) -> B.of_int (ceil_small n d) | Big (n, d) -> B.cdiv n d

let floor_int = function
  | Small (n, d) -> floor_small n d
  | Big (n, d) -> B.to_int_exn (B.fdiv n d)

let ceil_int = function
  | Small (n, d) -> ceil_small n d
  | Big (n, d) -> B.to_int_exn (B.cdiv n d)

(* Both components past the float range would give inf /. inf = nan:
   divide their top 64 bits instead and put the scale back with ldexp.
   In range, the plain quotient is kept bit for bit. *)
let to_float = function
  | Small (n, d) -> float_of_int n /. float_of_int d
  | Big (n, d) ->
      let fn = B.to_float n and fd = B.to_float d in
      if Float.is_finite fn && Float.is_finite fd then fn /. fd
      else
        let sn = Stdlib.max 0 (B.numbits n - 64) and sd = Stdlib.max 0 (B.numbits d - 64) in
        Float.ldexp (B.to_float (B.shift_right n sn) /. B.to_float (B.shift_right d sd)) (sn - sd)

let to_string = function
  | Small (n, 1) -> string_of_int n
  | Small (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | Big (n, d) -> if B.equal d B.one then B.to_string n else B.to_string n ^ "/" ^ B.to_string d

let pp fmt x = Format.pp_print_string fmt (to_string x)

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
      let a = B.of_string (String.sub s 0 i) in
      let b = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make a b
  | None -> (
      match String.index_opt s '.' with
      | None -> of_bigint (B.of_string s)
      | Some i ->
          let int_part = String.sub s 0 i in
          let frac = String.sub s (i + 1) (String.length s - i - 1) in
          if frac = "" then of_bigint (B.of_string int_part)
          else begin
            let scale = B.pow (B.of_int 10) (String.length frac) in
            let negative = String.length int_part > 0 && int_part.[0] = '-' in
            let whole =
              if int_part = "" || int_part = "-" || int_part = "+" then B.zero
              else B.of_string int_part
            in
            let fr = B.of_string frac in
            let mag = B.add (B.mul (B.abs whole) scale) fr in
            make (if negative then B.neg mag else mag) scale
          end)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) = lt
  let ( <= ) = leq
  let ( > ) = gt
  let ( >= ) = geq
end

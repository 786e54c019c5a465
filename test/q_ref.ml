(* Reference rationals for the differential suite: the Bigint-only
   representation Hs_numeric.Q used before its immediate-int tier.  Every
   value is a pair of limb arrays, so this path is slow but has no tier
   boundary; test_q_diff.ml checks that Q agrees with it operation by
   operation.  Canonical form: positive denominator, coprime components. *)

module B = Hs_numeric.Bigint

type t = { n : B.t; d : B.t }

let zero = { n = B.zero; d = B.one }
let one = { n = B.one; d = B.one }
let minus_one = { n = B.minus_one; d = B.one }

let make num den =
  if B.is_zero den then raise Division_by_zero;
  if B.is_zero num then zero
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    if B.equal g B.one then { n = num; d = den }
    else { n = B.div num g; d = B.div den g }
  end

let of_bigint n = { n; d = B.one }
let of_int k = of_bigint (B.of_int k)
let of_ints a b = make (B.of_int a) (B.of_int b)

let num x = x.n
let den x = x.d
let sign x = B.sign x.n
let is_zero x = B.is_zero x.n
let is_integer x = B.equal x.d B.one

let compare x y =
  (* Cheap same-denominator and sign short-cuts before cross-multiplying. *)
  let sx = sign x and sy = sign y in
  if sx <> sy then Stdlib.compare sx sy
  else if B.equal x.d y.d then B.compare x.n y.n
  else B.compare (B.mul x.n y.d) (B.mul y.n x.d)

let equal x y = compare x y = 0
let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y
let leq x y = compare x y <= 0
let lt x y = compare x y < 0
let geq x y = compare x y >= 0
let gt x y = compare x y > 0

let neg x = { x with n = B.neg x.n }
let abs x = { x with n = B.abs x.n }

let add x y =
  if is_zero x then y
  else if is_zero y then x
  else if B.equal x.d y.d then make (B.add x.n y.n) x.d
  else make (B.add (B.mul x.n y.d) (B.mul y.n x.d)) (B.mul x.d y.d)

let sub x y = add x (neg y)

let mul x y =
  if is_zero x || is_zero y then zero
  else begin
    (* Cross-reduce before multiplying to keep intermediates small. *)
    let g1 = B.gcd x.n y.d and g2 = B.gcd y.n x.d in
    let n = B.mul (B.div x.n g1) (B.div y.n g2) in
    let d = B.mul (B.div x.d g2) (B.div y.d g1) in
    { n; d }
  end

let inv x =
  if is_zero x then raise Division_by_zero;
  if B.sign x.n < 0 then { n = B.neg x.d; d = B.neg x.n } else { n = x.d; d = x.n }

let div x y = mul x (inv y)
let mul_int x k = mul x (of_int k)
let div_int x k = div x (of_int k)

let floor x = B.fdiv x.n x.d
let ceil x = B.cdiv x.n x.d
let floor_int x = B.to_int_exn (floor x)
let ceil_int x = B.to_int_exn (ceil x)

let to_float x = B.to_float x.n /. B.to_float x.d

let to_string x =
  if is_integer x then B.to_string x.n
  else B.to_string x.n ^ "/" ^ B.to_string x.d

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

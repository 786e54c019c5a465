(* Sign-magnitude arbitrary-precision integers.

   Magnitudes are little-endian arrays of limbs in base 2^24.  The base is
   chosen so that a two-limb window (used by the division routine) and a
   limb product plus carries fit in a 63-bit native int.  Invariants:
   - no trailing (most-significant) zero limb,
   - [sign = 0] iff the magnitude is empty, otherwise [sign] is [1]/[-1]. *)

type t = { sign : int; mag : int array }

let base_bits = 24
let base = 1 lsl base_bits
let base_mask = base - 1

let zero = { sign = 0; mag = [||] }
let one = { sign = 1; mag = [| 1 |] }
let minus_one = { sign = -1; mag = [| 1 |] }

let check_invariant x =
  let n = Array.length x.mag in
  let trimmed = n = 0 || x.mag.(n - 1) <> 0 in
  let in_range = Array.for_all (fun l -> l >= 0 && l < base) x.mag in
  let sign_ok =
    if n = 0 then x.sign = 0 else x.sign = 1 || x.sign = -1
  in
  trimmed && in_range && sign_ok

(* Drop most-significant zero limbs and fix the sign of a raw magnitude. *)
let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let sign x = x.sign
let is_zero x = x.sign = 0

let of_int k =
  if k = 0 then zero
  else
    let s = if k > 0 then 1 else -1 in
    (* Work on the non-positive value to avoid [abs min_int] overflow:
       for k <= 0, |k| = sum of (-(k mod base)) * base^i with k := k / base. *)
    let rec limbs k = if k = 0 then [] else - (k mod base) :: limbs (k / base) in
    let l = limbs (if k > 0 then -k else k) in
    { sign = s; mag = Array.of_list l }

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let compare x y =
  if x.sign <> y.sign then Stdlib.compare x.sign y.sign
  else
    match x.sign with
    | 0 -> 0
    | 1 -> compare_mag x.mag y.mag
    | _ -> compare_mag y.mag x.mag

let equal x y = compare x y = 0
let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

let to_int x =
  (* Accumulate towards negative to cover min_int. *)
  let n = Array.length x.mag in
  let rec go i acc =
    if i < 0 then Some acc
    else if acc < (Stdlib.min_int + x.mag.(i)) / base then None
    else go (i - 1) ((acc * base) - x.mag.(i))
  in
  match go (n - 1) 0 with
  | None -> None
  | Some neg ->
      if x.sign >= 0 then if neg = Stdlib.min_int then None else Some (-neg)
      else Some neg

let to_int_exn x =
  match to_int x with
  | Some k -> k
  | None -> failwith "Bigint.to_int_exn: out of native range"

(* Magnitude addition: |a| + |b|. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r

(* Magnitude subtraction: |a| - |b|, requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then normalize x.sign (add_mag x.mag y.mag)
  else
    let c = compare_mag x.mag y.mag in
    if c = 0 then zero
    else if c > 0 then normalize x.sign (sub_mag x.mag y.mag)
    else normalize y.sign (sub_mag y.mag x.mag)

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let sub x y = add x (neg y)
let abs x = if x.sign < 0 then neg x else x

let mul_mag_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- t land base_mask;
          carry := t lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land base_mask;
          carry := t lsr base_bits;
          incr k
        done
      end
    done;
    r
  end

(* Trim most-significant zero limbs of a raw magnitude. *)
let trim_mag m =
  let n = ref (Array.length m) in
  while !n > 0 && m.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length m then m else Array.sub m 0 !n

(* Karatsuba multiplication above this limb count (tuned; exact LP
   pivoting produces operands of hundreds of limbs where the O(n^1.585)
   split pays off). *)
let karatsuba_threshold = 24

let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if Stdlib.min la lb < karatsuba_threshold then mul_mag_school a b
  else begin
    (* split at half the larger operand: x = x1·B^k + x0 *)
    let k = (Stdlib.max la lb + 1) / 2 in
    let lo m = trim_mag (Array.sub m 0 (Stdlib.min k (Array.length m))) in
    let hi m =
      if Array.length m <= k then [||] else Array.sub m k (Array.length m - k)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let s1 = add_mag a0 a1 and s2 = add_mag b0 b1 in
    let z1 = sub_mag (trim_mag (mul_mag (trim_mag s1) (trim_mag s2))) (trim_mag (add_mag z0 z2)) in
    (* r = z0 + z1·B^k + z2·B^2k *)
    let r = Array.make (la + lb + 1) 0 in
    let add_at off m =
      let carry = ref 0 in
      let lm = Array.length m in
      let i = ref 0 in
      while !i < lm || !carry <> 0 do
        let t = r.(off + !i) + (if !i < lm then m.(!i) else 0) + !carry in
        r.(off + !i) <- t land base_mask;
        carry := t lsr base_bits;
        incr i
      done
    in
    add_at 0 z0;
    add_at k (trim_mag z1);
    add_at (2 * k) z2;
    r
  end

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else normalize (x.sign * y.sign) (mul_mag x.mag y.mag)

let mul_int x k = mul x (of_int k)
let add_int x k = add x (of_int k)

(* Shift a magnitude left by [s] bits (0 <= s < base_bits). *)
let shift_left_bits mag s =
  let n = Array.length mag in
  if s = 0 then Array.append mag [| 0 |]
  else begin
    let r = Array.make (n + 1) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let t = (mag.(i) lsl s) lor !carry in
      r.(i) <- t land base_mask;
      carry := t lsr base_bits
    done;
    r.(n) <- !carry;
    r
  end

(* Shift a magnitude right by [s] bits (0 <= s < base_bits). *)
let shift_right_bits mag s =
  let n = Array.length mag in
  if s = 0 then Array.copy mag
  else begin
    let r = Array.make n 0 in
    for i = 0 to n - 1 do
      let lo = mag.(i) lsr s in
      let hi = if i + 1 < n then (mag.(i + 1) lsl (base_bits - s)) land base_mask else 0 in
      r.(i) <- lo lor hi
    done;
    r
  end

(* Short division of a magnitude by a single limb 0 < d < base. *)
let divmod_mag_small u d =
  let n = Array.length u in
  let q = Array.make n 0 in
  let rem = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor u.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (q, !rem)

(* Knuth's Algorithm D on magnitudes; requires |u| >= |v|, length v >= 2. *)
let divmod_mag_long u v =
  let n = Array.length v in
  let mlen = Array.length u - n in
  (* Normalisation shift: make the top limb of v >= base/2. *)
  let s =
    let top = v.(n - 1) in
    let rec go s = if top lsl s >= base / 2 then s else go (s + 1) in
    go 0
  in
  let vn = Array.sub (shift_left_bits v s) 0 n in
  let un = shift_left_bits u s in
  (* [un] has length (Array.length u) + 1 = mlen + n + 1. *)
  let q = Array.make (mlen + 1) 0 in
  for j = mlen downto 0 do
    (* Estimate the quotient limb from the top two limbs. *)
    let num = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) in
    let rhat = ref (num mod vn.(n - 1)) in
    let continue_correcting = ref true in
    while !continue_correcting do
      if
        !qhat >= base
        || !qhat * vn.(n - 2) > (!rhat lsl base_bits) lor un.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then continue_correcting := false
      end
      else continue_correcting := false
    done;
    (* Multiply and subtract qhat * vn from un[j .. j+n]. *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !borrow in
      let sb = un.(j + i) - (p land base_mask) in
      if sb < 0 then begin
        un.(j + i) <- sb + base;
        borrow := (p lsr base_bits) + 1
      end
      else begin
        un.(j + i) <- sb;
        borrow := p lsr base_bits
      end
    done;
    let top = un.(j + n) - !borrow in
    if top < 0 then begin
      (* qhat was one too large: add vn back. *)
      un.(j + n) <- top + base;
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let t = un.(j + i) + vn.(i) + !carry in
        un.(j + i) <- t land base_mask;
        carry := t lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry) land base_mask
    end
    else un.(j + n) <- top;
    q.(j) <- !qhat
  done;
  let r = shift_right_bits (Array.sub un 0 n) s in
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else if compare_mag a.mag b.mag < 0 then (zero, a)
  else begin
    let qmag, rmag =
      if Array.length b.mag = 1 then begin
        let q, r = divmod_mag_small a.mag b.mag.(0) in
        (q, if r = 0 then [||] else [| r |])
      end
      else divmod_mag_long a.mag b.mag
    in
    (normalize (a.sign * b.sign) qmag, normalize a.sign rmag)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let fdiv a b =
  let q, r = divmod a b in
  if is_zero r || sign r = sign b then q else sub q one

let cdiv a b =
  let q, r = divmod a b in
  if is_zero r || sign r <> sign b then q else add q one

let rec gcd_aux a b = if is_zero b then a else gcd_aux b (rem a b)
let gcd a b = gcd_aux (abs a) (abs b)

let pow x k =
  if k < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b k =
    if k = 0 then acc
    else
      let acc = if k land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (k lsr 1)
  in
  go one x k

(* Decimal chunking constant: the largest power of ten below the base,
   so short division/multiplication by it stays single-limb. *)
let dec_chunk = 10_000_000
let dec_digits = 7

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag acc =
      if Array.length mag = 0 then acc
      else
        let q, r = divmod_mag_small mag dec_chunk in
        let q = (normalize 1 q).mag in
        go q (r :: acc)
    in
    match go x.mag [] with
    | [] -> "0"
    | first :: rest ->
        if x.sign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) rest;
        Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: invalid digit";
    chunk := (!chunk * 10) + (Char.code c - Char.code '0');
    incr chunk_len;
    if !chunk_len = dec_digits then begin
      acc := add_int (mul_int !acc dec_chunk) !chunk;
      chunk := 0;
      chunk_len := 0
    end
  done;
  if !chunk_len > 0 then begin
    let scale = int_of_float (10. ** float_of_int !chunk_len) in
    acc := add_int (mul_int !acc scale) !chunk
  end;
  if negative then neg !acc else !acc

(* Significant bits of |x|: (limbs - 1) full limbs plus the top limb's width. *)
let numbits x =
  let n = Array.length x.mag in
  if n = 0 then 0
  else
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + width x.mag.(n - 1) 0

let shift_right x k =
  if k < 0 then invalid_arg "Bigint.shift_right: negative shift";
  let limbs = k / base_bits and n = Array.length x.mag in
  if limbs >= n then zero
  else normalize x.sign (shift_right_bits (Array.sub x.mag limbs (n - limbs)) (k mod base_bits))

let to_float x =
  let n = Array.length x.mag in
  let rec go i acc = if i < 0 then acc else go (i - 1) ((acc *. float_of_int base) +. float_of_int x.mag.(i)) in
  let m = go (n - 1) 0. in
  if x.sign < 0 then -.m else m

let pp fmt x = Format.pp_print_string fmt (to_string x)

(* Order statistics over measured samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = float_of_int (n - 1) *. p /. 100. in
    let lo = int_of_float h in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so the suite's spreads
   match the ones an outside reader computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

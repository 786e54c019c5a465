(** Ordered-field abstraction for the simplex solver.

    The solver is a functor over this signature so the same code runs in
    two regimes: certified exact arithmetic over {!Hs_numeric.Q} (used for
    all correctness-bearing results) and fast floating point with an
    epsilon tolerance (used only for timing comparisons, experiment F3). *)

module type S = sig
  type t

  val name : string
  (** Human-readable instance name ("exact-Q" / "float"). *)

  val zero : t
  val one : t

  val of_int : int -> t
  val of_q : Hs_numeric.Q.t -> t

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  val div : t -> t -> t
  (** Raises [Division_by_zero] on a zero divisor. *)

  val neg : t -> t

  val compare : t -> t -> int
  (** Order; exact for {!Exact}.  {!Float} reads values within its
      tolerance of each other as equal, as {!sign} and {!is_zero} do,
      so the simplex breaks float near-ties by index like exact ties. *)

  val sign : t -> int
  (** [-1], [0] or [1]; zero within tolerance counts as [0]. *)

  val is_zero : t -> bool

  val to_float : t -> float
  val to_string : t -> string

  val exact : bool
  (** Whether arithmetic is exact.  Gates paths that are only sound when
      verification happens in the same field, e.g. promoting a float
      pre-solve's basis guess to an exact certification. *)
end

(** Exact rational instance: every comparison is certified. *)
module Exact : S with type t = Hs_numeric.Q.t = struct
  module Q = Hs_numeric.Q

  type t = Q.t

  let name = "exact-Q"
  let zero = Q.zero
  let one = Q.one
  let of_int = Q.of_int
  let of_q q = q
  let add = Q.add
  let sub = Q.sub
  let mul = Q.mul
  let div = Q.div
  let neg = Q.neg
  let compare = Q.compare
  let sign = Q.sign
  let is_zero = Q.is_zero
  let to_float = Q.to_float
  let to_string = Q.to_string
  let exact = true
end

(** Floating-point instance with a fixed absolute tolerance.  Only used
    for speed benchmarks; never for correctness claims. *)
module Float : S with type t = float = struct
  type t = float

  let name = "float"
  let eps = 1e-9
  let zero = 0.
  let one = 1.
  let of_int = float_of_int
  let of_q = Hs_numeric.Q.to_float
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )

  let div a b = if b = 0. then raise Division_by_zero else a /. b

  let neg x = -.x
  let compare a b = if Float.abs (a -. b) <= eps then 0 else Float.compare a b
  let sign x = if Float.abs x <= eps then 0 else if x > 0. then 1 else -1
  let is_zero x = Float.abs x <= eps
  let to_float x = x
  let to_string = string_of_float
  let exact = false
end

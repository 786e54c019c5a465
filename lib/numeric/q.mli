(** Exact rational numbers, in two tiers.

    Values are kept in canonical form: the denominator is positive and
    coprime with the numerator, and zero is represented as [0/1].  This is
    the coefficient field used by the exact simplex solver, so LP
    feasibility answers (and therefore the binary search of Theorem V.2)
    are certified rather than subject to floating-point tolerances.

    {b Tiers.}  A value whose numerator magnitude and denominator are both
    below [2^30] is stored as an immediate pair of native ints; any other
    value is a pair of {!Bigint}s.  With both operands small, every cross
    product is below [2^60] and every sum of two cross products below
    [2^61], inside OCaml's 63-bit [int], so the small path runs with no
    per-operation overflow test: it reduces with a native gcd and then
    stores the result small when it fits, or promotes it to the Bigint
    tier when it does not.  Mixed and large operands take the Bigint path,
    whose results are demoted back whenever they fit.

    {b Canonical form.}  Every value that fits the small tier is stored
    there, whichever constructor or operation produced it, so each
    rational has exactly one representation: structural equality [( = )]
    agrees with {!equal}, including inside larger values such as
    [t option] fields.

    Each result stored in the Bigint tier by normalisation increments
    the ["numeric.q.promotions"] counter of {!Hs_obs.Metrics}; a result
    that stays small never touches it. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val minus_one : t

(** {1 Constructors} *)

(** [make num den] is the normalised rational [num/den].
    Raises [Division_by_zero] when [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

val of_bigint : Bigint.t -> t
val of_int : int -> t

(** [of_ints a b] is [a/b]. Raises [Division_by_zero] when [b = 0]. *)
val of_ints : int -> int -> t

(** Parses ["a"], ["a/b"] or a decimal such as ["1.25"] exactly. *)
val of_string : string -> t

(** {1 Accessors} *)

val num : t -> Bigint.t
val den : t -> Bigint.t

(** {1 Predicates and comparisons} *)

val sign : t -> int
val is_zero : t -> bool

(** [is_integer x] holds when the denominator is one. *)
val is_integer : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t
val leq : t -> t -> bool
val lt : t -> t -> bool
val geq : t -> t -> bool
val gt : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Raises [Division_by_zero] when the divisor is zero. *)
val div : t -> t -> t

(** Multiplicative inverse. Raises [Division_by_zero] on zero. *)
val inv : t -> t

val mul_int : t -> int -> t
val div_int : t -> int -> t

(** {1 Rounding} *)

(** Largest integer below or equal. *)
val floor : t -> Bigint.t

(** Smallest integer above or equal. *)
val ceil : t -> Bigint.t

(** [floor_int]/[ceil_int] additionally convert to a native [int];
    they raise [Failure] when out of range. *)
val floor_int : t -> int

val ceil_int : t -> int

(** {1 Conversions} *)

(** Float approximation, never [nan]: components past the float range
    are scaled down first, so the result is infinite or zero only when
    the value itself is out of range. *)
val to_float : t -> float
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Operators}

    A local-open-friendly operator module: [Q.Infix.(a + b * c)]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

(** Arbitrary-precision signed integers.

    Built from scratch because [zarith] is not available in this
    environment.  The representation is sign-magnitude with little-endian
    limbs in base [2^24], so every intermediate product of two limbs fits
    comfortably in OCaml's 63-bit native [int].

    The module provides exactly the operations required by the exact
    rational field {!Q} and the simplex solver built on top of it:
    ring arithmetic, Euclidean division, gcd, comparisons and (decimal)
    conversions. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val minus_one : t

(** {1 Conversions} *)

(** [of_int k] converts a native integer (including [min_int]). *)
val of_int : int -> t

(** [to_int x] is [Some k] when [x] fits in a native [int]. *)
val to_int : t -> int option

(** [to_int_exn x] raises [Failure] when [x] does not fit in an [int]. *)
val to_int_exn : t -> int

(** [of_string s] parses an optionally signed decimal literal.
    Raises [Invalid_argument] on malformed input. *)
val of_string : string -> t

(** [to_string x] is the decimal representation of [x]. *)
val to_string : t -> string

(** [to_float x] is a double-precision approximation of [x]. *)
val to_float : t -> float

(** {1 Predicates and comparisons} *)

(** [sign x] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val equal : t -> t -> bool

(** Total order compatible with the integer order. *)
val compare : t -> t -> int

val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], [q] truncated towards
    zero and [sign r = sign a] (or [r = 0]); i.e. C-style division.
    Raises [Division_by_zero] when [b] is zero. *)
val divmod : t -> t -> t * t

(** Truncating quotient, as in {!divmod}. *)
val div : t -> t -> t

(** Remainder, as in {!divmod}. *)
val rem : t -> t -> t

(** [fdiv a b] is the quotient rounded towards negative infinity. *)
val fdiv : t -> t -> t

(** [cdiv a b] is the quotient rounded towards positive infinity. *)
val cdiv : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)
val gcd : t -> t -> t

(** [mul_int x k] multiplies by a native integer. *)
val mul_int : t -> int -> t

(** [add_int x k] adds a native integer. *)
val add_int : t -> int -> t

(** [pow x k] raises to a non-negative native power.
    Raises [Invalid_argument] when [k < 0]. *)
val pow : t -> int -> t

(** [numbits x] is the number of significant bits of [|x|]; [0] for zero. *)
val numbits : t -> int

(** [shift_right x k] is [x / 2^k] truncated towards zero, for [k >= 0].
    Raises [Invalid_argument] when [k < 0]. *)
val shift_right : t -> int -> t

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit

(** {1 Internal consistency} *)

(** [check_invariant x] verifies the sign/magnitude representation
    invariants; used by the test-suite. *)
val check_invariant : t -> bool

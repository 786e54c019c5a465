(** Compressed-sparse-row matrices over a simplex {!Field.S}.

    {!Simplex} stores the standard-form constraint matrix this way —
    once row-major (as built from the constraint list) and once
    transposed, so both row sweeps and column extraction are O(nnz of
    the slice).  IP-1/IP-3 relaxations are extremely sparse (each
    column touches one laminar chain), so a pivot costs time in the
    nonzeros rather than in rows × columns. *)

module Make (F : Field.S) : sig
  type t

  val of_rows : nrows:int -> ncols:int -> (int * F.t) list array -> t
  (** Build from per-row [(column, coefficient)] lists.  Duplicate
      column entries are summed and entries whose sum is zero under
      [F.is_zero] are dropped.  Raises [Invalid_argument] on
      out-of-range columns. *)

  val iter_row : t -> int -> (int -> F.t -> unit) -> unit
  (** Iterate one row's [(column, value)] entries in column order. *)

  val dot_row : t -> int -> F.t array -> F.t
  (** Dot product of a row with a dense vector. *)

  val transpose : t -> t
  (** CSC view as the CSR of the transpose; entries of each transposed
      row are sorted by original row index. *)

  val scatter_row : t -> int -> F.t array -> unit
  (** Write one row's entries into a dense vector (caller clears). *)
end

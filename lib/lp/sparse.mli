(** Compressed-sparse-row matrices over a simplex {!Field.S}.

    {!Simplex} stores the standard-form constraint matrix this way —
    once row-major (as built from the constraint list, for the pivot-row
    sweep that updates reduced costs) and once transposed (for column
    extraction and the initial pricing), so both are O(nnz of the
    slice).  IP-1/IP-3 relaxations are extremely sparse (each column
    touches one laminar chain), so a pivot costs time in the nonzeros
    rather than in rows × columns. *)

module Make (F : Field.S) : sig
  type t = private {
    nrows : int;
    ncols : int;
    rptr : int array;
        (** length [nrows + 1]: row [r] holds entries [rptr.(r)] to
            [rptr.(r + 1) - 1] *)
    cidx : int array;  (** column of each entry, ascending within a row *)
    vals : F.t array;  (** value of each entry, never zero *)
  }
  (** Read-only to the solver's inner loops, which walk a row without
      a closure per entry. *)

  val of_rows : nrows:int -> ncols:int -> (int * F.t) list array -> t
  (** Build from per-row [(column, coefficient)] lists.  Duplicate
      column entries are summed in input order and entries whose sum is
      zero under [F.is_zero] are dropped.  Raises [Invalid_argument] on
      out-of-range columns. *)

  val dot_row : t -> int -> F.t array -> F.t
  (** Dot product of a row with a dense vector. *)

  val transpose : t -> t
  (** CSC view as the CSR of the transpose; entries of each transposed
      row are sorted by original row index. *)

  val scatter_row : t -> int -> F.t array -> unit
  (** Write one row's entries into a dense vector (caller clears). *)
end

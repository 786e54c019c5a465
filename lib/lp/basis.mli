(** Field-independent simplex basis descriptors.

    A basis is described structurally — by which columns of the
    standard form are basic — rather than numerically, so a descriptor
    saved from one solve can be proposed to a {e different} (but
    similar) problem: {!Simplex} re-factorises the proposed
    columns from scratch, silently drops entries that no longer exist
    or are linearly dependent, and completes the basis with unit
    columns (this is the repair path).  A corrupted or stale descriptor
    can therefore cost pivots but never correctness. *)

type entry =
  | Var of int  (** original decision variable [v] is basic *)
  | Aux of int
      (** the auxiliary (slack or surplus) column of constraint row [i]
          — in declaration order of the problem — is basic *)

type t = entry list
(** Basic columns of a standard-form basis, at most one per row.
    Artificial columns are never recorded: a redundant row whose
    artificial stayed basic at zero is simply omitted and re-repaired
    on load. *)

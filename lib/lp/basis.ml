(* Field-independent simplex basis descriptors; see basis.mli. *)

type entry =
  | Var of int
  | Aux of int

type t = entry list

(** Generic iterative rounding for assignment + packing LPs (Section VI).

    The engine behind both memory extensions: re-solve the residual LP to
    a vertex (exact arithmetic), freeze integral variables, and otherwise
    drop one relaxable packing row.  Theorem VI.1 uses the support-size
    rule; Lemma VI.2 the normalised-weight rule, which bounds the final
    violation of a row dropped at weight [≤ ρ·b] by [(1+ρ)·b] while the
    assignment constraints hold exactly. *)

module Q = Hs_numeric.Q

type var = {
  job : int;
  opt : int;  (** caller-side option identifier *)
  col : (int * Q.t) list;  (** sparse packing coefficients (row, a ≥ 0) *)
}

type problem = {
  njobs : int;
  vars : var list;
  bounds : Q.t array;  (** b_l > 0 *)
  names : string array;  (** one label per packing row *)
}

type policy =
  | Support_at_most of int
      (** drop a row whose fractional support has ≤ k variables *)
  | Weight_at_most of Q.t
      (** drop a row l with Σ_{support} a_lq ≤ ρ·b_l (Lemma VI.2) *)

type outcome = {
  choice : int array;  (** job → chosen option id *)
  usage : Q.t array;  (** final left-hand sides a_l·z̄ *)
  dropped : int list;  (** rows dropped during rounding *)
  rounds : int;
  fallback_drops : int;
      (** drops that did not satisfy the policy; positive values flag
          that the structural guarantee failed (expected 0) *)
}

val solve : problem -> policy -> (outcome, string) result
(** Round to an integral choice.  Every residual LP is an exact solve
    that terminates because the simplex switches to Bland's rule in
    place on a degenerate run.  Fails when the initial LP is
    infeasible, a job runs out of options, or a bound is non-positive. *)

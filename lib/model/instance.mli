(** Problem instances of the hierarchical scheduling problem (Section II).

    An instance bundles a laminar family [A] over machines [M] with, for
    each job [j] and set [α ∈ A], the processing time [P_j(α)] the job
    requires when its affinity mask is [α].  Construction validates the
    paper's monotonicity requirement ([α ⊆ β ⇒ P_j(α) ≤ P_j(β)], with
    {!Ptime.Inf} as the top element). *)

open Hs_laminar

type t

(** {1 Accessors} *)

val laminar : t -> Laminar.t
val njobs : t -> int
val nmachines : t -> int
val ptime : t -> job:int -> set:int -> Ptime.t

(** {1 Construction} *)

val make : Laminar.t -> Ptime.t array array -> (t, string) result
(** [make lam p] with [p.(job).(set)]; validates arity and monotonicity. *)

val make_exn : Laminar.t -> Ptime.t array array -> t

val unrelated : m:int -> Ptime.t array array -> t
(** Unrelated machines ([R||Cmax]): [times.(job).(machine)] over the
    family of the [m] singletons.  [times] may be empty (no jobs);
    raises [Invalid_argument] when [m < 1] or a row's length is not
    [m]. *)

val semi_partitioned : global:Ptime.t array -> local:Ptime.t array array -> t
(** Semi-partitioned (§III): [global.(j)] is [P_j(M)],
    [local.(j).(i)] is [P_j({i})].  For [m = 1] the two coincide and the
    cheaper time wins. *)

val identical : m:int -> lengths:int array -> t
(** Identical machines with free migration ([P|pmtn|Cmax]). *)

(** {1 Transformations} *)

val with_singletons : t -> t * (int -> int option)
(** Singleton closure of Section V: adds every missing singleton [{i}]
    with the processing time of the minimal original set containing [i]
    (∞ when none).  Also returns the map from new set ids back to
    original ones ([None] for freshly added singletons). *)

(** {1 Aggregates} *)

val singleton_times : t -> Ptime.t array array
(** [times.(job).(machine)]: [P_j({i})] on the singleton mask of each
    machine, or ∞ when the family has no singleton [{i}]. *)

val min_ptime : t -> int -> Ptime.t
(** Minimum processing time of a job over the whole family. *)

val total_min_volume : t -> int option
(** [Σ_j min_α P_j(α)], or [None] when some job has no finite mask. *)

val pp : Format.formatter -> t -> unit

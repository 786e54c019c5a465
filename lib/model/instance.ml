(** Problem instances of the hierarchical scheduling problem.

    An instance bundles a laminar family [A] over machines [M] with, for
    each job [j] and set [α ∈ A], the processing time [P_j(α)] the job
    requires when its affinity mask is [α].  Construction validates the
    paper's monotonicity requirement: [α ⊆ β ⇒ P_j(α) ≤ P_j(β)] (with
    {!Ptime.Inf} as the top element). *)

open Hs_laminar

type t = {
  laminar : Laminar.t;
  n : int;  (** number of jobs *)
  p : Ptime.t array array;  (** [p.(j).(set)] = P_j(set) *)
}

let laminar t = t.laminar
let njobs t = t.n
let nmachines t = Laminar.m t.laminar
let ptime t ~job ~set = t.p.(job).(set)

let make laminar p =
  let nsets = Laminar.size laminar in
  let n = Array.length p in
  let bad fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  try
    Array.iteri
      (fun j row ->
        if Array.length row <> nsets then
          raise
            (Bad
               (Printf.sprintf "instance: job %d has %d processing times, expected %d" j
                  (Array.length row) nsets));
        (* Monotonicity: each set's time is at most its parent's. *)
        Array.iteri
          (fun s pt ->
            match Laminar.parent laminar s with
            | None -> ()
            | Some par ->
                if not (Ptime.leq pt row.(par)) then
                  raise
                    (Bad
                       (Printf.sprintf
                          "instance: job %d violates monotonicity: P(set %d)=%s > P(set %d)=%s"
                          j s (Ptime.to_string pt) par (Ptime.to_string row.(par)))))
          row)
      p;
    Ok { laminar; n; p }
  with Bad msg -> bad "%s" msg

let make_exn laminar p =
  match make laminar p with Ok t -> t | Error e -> invalid_arg e

(** Unrelated-machines instance ([R||Cmax]): family of the [m]
    singletons, [times.(j).(i)] = processing time of job [j] on machine
    [i]. *)
let unrelated ~m times =
  let lam = Topology.singletons m in
  (* Singleton of machine i need not be set id i; translate. *)
  let p =
    Array.map
      (fun row ->
        if Array.length row <> m then invalid_arg "Instance.unrelated: ragged matrix";
        let out = Array.make (Laminar.size lam) Ptime.Inf in
        Array.iteri
          (fun i pt ->
            match Laminar.singleton lam i with
            | Some s -> out.(s) <- pt
            | None -> assert false)
          row;
        out)
      times
  in
  make_exn lam p

(** Semi-partitioned instance (§III): [global.(j)] is [P_j(M)],
    [local.(j).(i)] is [P_j({i})]. *)
let semi_partitioned ~global ~local =
  let n = Array.length global in
  if Array.length local <> n then invalid_arg "Instance.semi_partitioned: length mismatch";
  if n = 0 then invalid_arg "Instance.semi_partitioned: no jobs";
  let m = Array.length local.(0) in
  let lam = Topology.semi_partitioned m in
  let full =
    match Laminar.full_set lam with Some f -> f | None -> assert false
  in
  let p =
    Array.init n (fun j ->
        let out = Array.make (Laminar.size lam) Ptime.Inf in
        out.(full) <- global.(j);
        (* For m = 1 the full set and the singleton coincide; running
           "globally" on one machine is just running locally, so the
           cheaper time wins. *)
        Array.iteri
          (fun i pt ->
            match Laminar.singleton lam i with
            | Some s -> out.(s) <- Ptime.min pt out.(s)
            | None -> assert false)
          local.(j);
        out)
  in
  make_exn lam p

(** Identical parallel machines with free migration ([P|pmtn|Cmax]):
    one set [M] with the given job lengths. *)
let identical ~m ~lengths =
  let lam = Topology.global m in
  let p = Array.map (fun len -> [| Ptime.fin len |]) lengths in
  make_exn lam p

(** Singleton closure used by Section V: extends the family with every
    missing singleton [{i}], giving it the processing time of the minimal
    original set containing [i] (or ∞ when no set contains [i]).  Also
    returns the translation from new set ids to original ones ([None] for
    freshly created singletons). *)
let with_singletons t =
  let lam', origin = Laminar.add_singletons t.laminar in
  let translate id' =
    match Laminar.find t.laminar (Array.to_list (Laminar.members lam' id')) with
    | Some id -> Some id
    | None -> None
  in
  let p' =
    Array.map
      (fun row ->
        Array.init (Laminar.size lam') (fun s' ->
            match translate s' with
            | Some s -> row.(s)
            | None -> ( (* new singleton: inherit from the minimal original superset *)
                match origin s' with Some s -> row.(s) | None -> Ptime.Inf)))
      t.p
  in
  (make_exn lam' p', translate)

(** Processing times on the singleton masks: [times.(j).(i)] is
    [P_j({i})], or ∞ when the family has no singleton [{i}]. *)
let singleton_times t =
  Array.map
    (fun row ->
      Array.init (nmachines t) (fun i ->
          match Laminar.singleton t.laminar i with Some s -> row.(s) | None -> Ptime.Inf))
    t.p

(** Minimum finite processing time of a job over the whole family. *)
let min_ptime t job = Array.fold_left Ptime.min Ptime.Inf t.p.(job)

(** [Some] of the total minimum volume [Σ_j min_α P_j(α)], or [None] if
    some job has no finite mask at all (the instance is then infeasible). *)
let total_min_volume t =
  let rec go j acc =
    if j >= t.n then Some acc
    else
      match Ptime.value (min_ptime t j) with
      | None -> None
      | Some v -> go (j + 1) (acc + v)
  in
  go 0 0

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@,%d jobs:" Laminar.pp t.laminar t.n;
  Array.iteri
    (fun j row ->
      Format.fprintf fmt "@,  job %d:" j;
      Array.iteri (fun s pt -> Format.fprintf fmt " p(#%d)=%a" s Ptime.pp pt) row)
    t.p;
  Format.fprintf fmt "@]"

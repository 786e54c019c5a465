(** Section VI: makespan minimisation under memory capacities.

    {b Model 1} — each machine [i] has budget [B_i]; a job assigned to
    mask [α] charges [s_ij] against every machine [i ∈ α].  Iterative
    rounding with the support-size rule gives a bicriteria guarantee of
    (3T, 3·B_i) (Theorem VI.1).

    {b Model 2} — the family is a tree whose leaves share a level; a
    node at height [h ≠ root] has capacity [µ^h] and job [j] has a
    machine-independent size [s_j ≤ 1].  The modified iterative rounding
    of Lemma VI.2 with [ρ = 1 + H_k] yields σ = 2 + H_k
    (σ = 3 + 1/m when k = 2) for both the makespan and every capacity
    (Theorem VI.3). *)

open Hs_model
open Hs_laminar
module Q = Hs_numeric.Q
module LPQ = Hs_lp.Lp_problem
module Solver = Hs_lp.Simplex.Make (Hs_lp.Field.Exact)

type report = {
  assignment : Assignment.t;
  t_reference : int;  (** minimal LP-feasible horizon of the revised ILP *)
  makespan : int;  (** achieved makespan of the rounded assignment *)
  makespan_factor : Q.t;  (** makespan / t_reference *)
  capacity_factors : (string * Q.t) list;  (** usage / bound per capacity row *)
  max_capacity_factor : Q.t;
  schedule : Schedule.t;
  rounds : int;
  fallback_drops : int;
}

(* Shared driver: binary-search the minimal horizon at which the revised
   LP is feasible, then round and schedule. *)
let run inst ~capacity_rows ~policy ~lo ~hi =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let lam = Instance.laminar inst in
  let n = Instance.njobs inst in
  let nsets = Laminar.size lam in
  (* Build the iterative-rounding problem at horizon [t]:
     variables (job, set) with p ≤ t; packing rows = the (3a) capacity
     rows of every set plus the caller's memory rows. *)
  let build t =
    let makespan_rows =
      List.init nsets (fun s -> s)
      |> List.map (fun s ->
             ( Printf.sprintf "cap(a=%d)" s,
               Q.of_int (Laminar.card lam s * t),
               `Makespan s ))
    in
    let memory_rows =
      List.map (fun (name, bound, chk) -> (name, bound, `Memory chk)) capacity_rows
    in
    let rows = Array.of_list (makespan_rows @ memory_rows) in
    let names = Array.map (fun (nm, _, _) -> nm) rows in
    let bounds = Array.map (fun (_, b, _) -> b) rows in
    let coeff l ~job ~set =
      match rows.(l) with
      | _, _, `Makespan alpha ->
          if Laminar.subset lam set alpha then
            Q.of_int (Ptime.value_exn (Instance.ptime inst ~job ~set))
          else Q.zero
      | _, _, `Memory chk -> chk ~job ~set
    in
    let vars =
      List.concat_map
        (fun j ->
          List.filter_map
            (fun s ->
              if Ptime.fits (Instance.ptime inst ~job:j ~set:s) ~tmax:t then
                let col =
                  List.filter_map
                    (fun l ->
                      let a = coeff l ~job:j ~set:s in
                      if Q.sign a > 0 then Some (l, a) else None)
                    (List.init (Array.length rows) (fun l -> l))
                in
                Some { Iterative_rounding.job = j; opt = s; col }
              else None)
            (List.init nsets (fun s -> s)))
        (List.init n (fun j -> j))
    in
    { Iterative_rounding.njobs = n; vars; bounds; names }
  in
  let lp_feasible t =
    let p = build t in
    let arr = Array.of_list p.Iterative_rounding.vars in
    let nv = Array.length arr in
    let covered = Array.make n false in
    Array.iter (fun v -> covered.(v.Iterative_rounding.job) <- true) arr;
    if not (Array.for_all (fun c -> c) covered) then false
    else begin
      let assign =
        List.init n (fun j ->
            let terms = ref [] in
            Array.iteri
              (fun idx v -> if v.Iterative_rounding.job = j then terms := (idx, Q.one) :: !terms)
              arr;
            LPQ.constr ~name:(Printf.sprintf "assign(%d)" j) !terms LPQ.Eq Q.one)
      in
      let packs =
        List.init (Array.length p.Iterative_rounding.bounds) (fun l ->
            let terms = ref [] in
            Array.iteri
              (fun idx v ->
                match List.assoc_opt l v.Iterative_rounding.col with
                | Some a -> terms := (idx, a) :: !terms
                | None -> ())
              arr;
            LPQ.constr ~name:p.Iterative_rounding.names.(l) !terms LPQ.Le
              p.Iterative_rounding.bounds.(l))
      in
      match Solver.feasible (LPQ.make ~nvars:nv (assign @ packs)) with
      | Solver.Feasible _ -> true
      | Solver.Infeasible_certificate _ -> false
    end
  in
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      if lp_feasible mid then search lo (mid - 1) (Some mid)
      else search (mid + 1) hi best
  in
  match search lo hi None with
  | None -> err "memory: the revised LP is infeasible at every horizon up to %d" hi
  | Some t -> (
      let p = build t in
      match Iterative_rounding.solve p (policy ~t) with
      | Error e -> Error e
      | Ok o -> (
          let assignment = Array.copy o.choice in
          let makespan = Assignment.min_makespan inst assignment in
          match Hierarchical.schedule inst assignment ~tmax:makespan with
          | Error e -> err "memory: scheduler failed: %s" e
          | Ok schedule ->
              let capacity_factors =
                List.init (Array.length p.Iterative_rounding.bounds) (fun l ->
                    ( p.Iterative_rounding.names.(l),
                      Q.div o.usage.(l) p.Iterative_rounding.bounds.(l) ))
              in
              let max_capacity_factor =
                List.fold_left (fun acc (_, f) -> Q.max acc f) Q.zero capacity_factors
              in
              Ok
                {
                  assignment;
                  t_reference = t;
                  makespan;
                  makespan_factor = Q.div (Q.of_int makespan) (Q.of_int (Stdlib.max t 1));
                  capacity_factors;
                  max_capacity_factor;
                  schedule;
                  rounds = o.rounds;
                  fallback_drops = o.fallback_drops;
                }))

(* Horizon search bounds under memory constraints.  Unlike the pure
   makespan problem, memory may force jobs away from their fastest masks,
   so the upper bound must admit every finite mask: hi = Σ_j max finite
   p.  At that horizon R is maximal, hence the LP is feasible iff it is
   feasible at any horizon. *)
let wide_bounds inst =
  let n = Instance.njobs inst in
  let lam = Instance.laminar inst in
  let rec go j lo hi =
    if j >= n then Some (lo, hi)
    else
      let finite =
        List.filter_map
          (fun s -> Ptime.value (Instance.ptime inst ~job:j ~set:s))
          (List.init (Laminar.size lam) (fun s -> s))
      in
      match finite with
      | [] -> None
      | _ ->
          let mn = List.fold_left Stdlib.min Stdlib.max_int finite in
          let mx = List.fold_left Stdlib.max 0 finite in
          go (j + 1) (Stdlib.max lo mn) (hi + mx)
  in
  go 0 0 0

(** {1 Model 1} *)

type model1 = {
  budgets : int array;  (** B_i per machine *)
  space : int array array;  (** s.(j).(i) = memory of job j on machine i *)
}

(** Solve Model 1: bicriteria target (3T, 3·B_i) via support-2 dropping. *)
let solve_model1 inst (m1 : model1) =
  let lam = Instance.laminar inst in
  let m = Laminar.m lam in
  let rows =
    List.init m (fun i ->
        ( Printf.sprintf "mem(i=%d)" i,
          Q.of_int m1.budgets.(i),
          fun ~job ~set ->
            if Laminar.mem lam set i then Q.of_int m1.space.(job).(i) else Q.zero ))
  in
  match wide_bounds inst with
  | None -> Error "memory: some job has no finite mask"
  | Some (lo, hi) ->
      run inst ~capacity_rows:rows ~policy:(fun ~t:_ -> Iterative_rounding.Support_at_most 2) ~lo ~hi

(** {1 Model 2} *)

type model2 = {
  mu : Q.t;  (** capacity scaling µ > 1 *)
  sizes : Q.t array;  (** s_j ≤ 1 per job *)
}

let qpow q k =
  let rec go acc k = if k = 0 then acc else go (Q.mul acc q) (k - 1) in
  go Q.one k

let harmonic k =
  let rec go acc i = if i > k then acc else go (Q.add acc (Q.of_ints 1 i)) (i + 1) in
  go Q.zero 1

(** The ρ of Lemma VI.2 computed from the actual coefficient matrix:
    [max_q Σ_l a_lq / b_l]; the paper bounds it by [1 + H_k]. *)
let rho_of_matrix (p : Iterative_rounding.problem) =
  List.fold_left
    (fun acc v ->
      let w =
        List.fold_left
          (fun a (l, c) -> Q.add a (Q.div c p.Iterative_rounding.bounds.(l)))
          Q.zero v.Iterative_rounding.col
      in
      Q.max acc w)
    Q.zero p.Iterative_rounding.vars

(** Solve Model 2: Lemma VI.2 rounding with ρ = 1 + H_k, giving
    σ = 2 + H_k for both makespan and every per-level capacity. *)
let solve_model2 inst (m2 : model2) =
  let lam = Instance.laminar inst in
  if not (Laminar.is_tree lam) then Error "memory model 2: family must be a tree"
  else if not (Laminar.uniform_leaf_level lam) then
    Error "memory model 2: leaves must share a level"
  else if Q.leq m2.mu Q.one then Error "memory model 2: µ must exceed 1"
  else begin
    let k = Laminar.nlevels lam in
    let rho = Q.add Q.one (harmonic k) in
    let root = match Laminar.roots lam with [ r ] -> r | _ -> assert false in
    let rows =
      List.init (Laminar.size lam) (fun s -> s)
      |> List.filter (fun s -> s <> root)
      |> List.map (fun s ->
             ( Printf.sprintf "mu-cap(a=%d)" s,
               qpow m2.mu (Laminar.height lam s),
               fun ~job ~set -> if set = s then m2.sizes.(job) else Q.zero ))
    in
    match wide_bounds inst with
    | None -> Error "memory: some job has no finite mask"
    | Some (lo, hi) ->
        run inst ~capacity_rows:rows
          ~policy:(fun ~t:_ -> Iterative_rounding.Weight_at_most rho)
          ~lo ~hi
  end

(** Paper bound σ = 2 + H_k for a k-level instance. *)
let sigma_bound ~k = Q.add (Q.of_int 2) (harmonic k)

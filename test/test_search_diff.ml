(* Differential suite for the Theorem V.2 horizon search: Ilp's
   [min_feasible_t], whose bracket ends at the greedy partitioned
   makespan, against the bisection over [max_j min p, Σ_j min p] in
   search_oracle.ml.  Both must return the same (T*, frac), structurally
   equal, and the bracket must be sound: lo ≤ hi ≤ Σ_j min p and the
   relaxation feasible at hi.  Inputs: the oracle corpus raw and
   singleton-closed, the three certify-batch topologies, and families
   missing some or all of their singletons, where the greedy either
   works around the gaps or fails and the bracket falls back to
   Σ_j min p.

   With QCHECK_LONG=1 each property draws 100 times its usual count:
   QCHECK_LONG=1 dune exec test/test_main.exe -- test search_diff *)

open Hs_model
open Hs_workloads
module I = Search_oracle.I
module Laminar = Hs_laminar.Laminar
module Topology = Hs_laminar.Topology

(* Every claim above on one instance; [Error] names the first that
   fails. *)
let agree inst =
  let fail fmt = Printf.ksprintf Result.error fmt in
  let show = function None -> "none" | Some (t, _) -> string_of_int t in
  let oracle = Search_oracle.min_feasible_t inst in
  match (I.t_bounds inst, Search_oracle.bounds inst) with
  | None, None ->
      if I.min_feasible_t inst = None then Ok () else fail "a horizon without bounds"
  | Some (lo, hi), Some (olo, volume) ->
      let found = I.min_feasible_t inst in
      if lo <> olo then fail "lo = %d, oracle %d" lo olo
      else if not (lo <= hi && hi <= volume) then
        fail "bracket [%d, %d] not inside [%d, %d]" lo hi lo volume
      else if I.lp_feasible inst ~tmax:hi = None then fail "relaxation infeasible at hi = %d" hi
      else if found <> oracle then
        fail "(T*, frac) differs: T* = %s, oracle %s" (show found) (show oracle)
      else Ok ()
  | _ -> fail "t_bounds and the oracle disagree on whether bounds exist"

let check_agree what inst =
  match agree inst with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s\n%s" what e (Instance_io.to_string inst)

let prop name ~count gen =
  QCheck.Test.make ~name ~count ~long_factor:100 Test_util.seed_arb (fun seed ->
      let inst = gen seed in
      match agree inst with
      | Ok () -> true
      | Error e ->
          QCheck.Test.fail_reportf "seed %d: %s\n%s" seed e (Instance_io.to_string inst))

let closed inst = fst (Instance.with_singletons inst)

(* The certify-batch cells (benchsuite/certify_batch.ml), with the job
   count drawn from 1 to 16. *)
let certify_batch seed =
  let rng = Rng.create seed in
  let lam =
    match Rng.int rng 3 with
    | 0 -> Topology.semi_partitioned 8
    | 1 -> Topology.clustered ~m:16 ~clusters:4
    | _ -> Topology.smp_cmp ~nodes:2 ~chips_per_node:2 ~cores_per_chip:2
  in
  Generators.hierarchical rng ~lam ~n:(1 + Rng.int rng 16) ~base:(2, 15) ~heterogeneity:1.6
    ~overhead:0.2 ()

(* The oracle corpus with the singletons of a random subset of machines
   removed from the family, possibly all of them.  Half the time job 0
   is then confined to a set none of whose machines kept a singleton,
   so it has no finite singleton time and the greedy fails. *)
let gapped seed =
  let inst = Oracle.instance_of_seed seed in
  let rng = Rng.create (seed lxor 0x2545f491) in
  let lam = Instance.laminar inst in
  let ids lam = List.init (Laminar.size lam) Fun.id in
  let keeps = Array.init (Laminar.m lam) (fun _ -> Rng.bool rng 0.5) in
  let kept =
    List.filter
      (fun s -> not (Laminar.is_singleton lam s) || keeps.((Laminar.members lam s).(0)))
      (ids lam)
  in
  if kept = [] then inst
  else begin
    let sets lam s = Array.to_list (Laminar.members lam s) in
    let lam' = Laminar.of_sets_exn ~m:(Laminar.m lam) (List.map (sets lam) kept) in
    let old s' = Option.get (Laminar.find lam (sets lam' s')) in
    let p =
      Array.init (Instance.njobs inst) (fun j ->
          Array.init (Laminar.size lam') (fun s' -> Instance.ptime inst ~job:j ~set:(old s')))
    in
    let bare =
      List.filter
        (fun s' -> Array.for_all (fun i -> Laminar.singleton lam' i = None) (Laminar.members lam' s'))
        (ids lam')
    in
    if bare <> [] && Rng.bool rng 0.5 then begin
      let alpha = List.nth bare (Rng.int rng (List.length bare)) in
      p.(0) <- Array.mapi (fun s' t -> if Laminar.subset lam' s' alpha then t else Ptime.Inf) p.(0)
    end;
    Instance.make_exn lam' p
  end

(* Job 0 runs only on {0,1}, and neither machine has a singleton set:
   the greedy fails, so hi is Σ_j min p = 3 + 2 + 2. *)
let test_no_finite_singleton () =
  let lam = Laminar.of_sets_exn ~m:3 [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 2 ] ] in
  let row times =
    let r = Array.make (Laminar.size lam) Ptime.Inf in
    List.iter (fun (ms, p) -> r.(Option.get (Laminar.find lam ms)) <- Ptime.fin p) times;
    r
  in
  let inst =
    Instance.make_exn lam
      [|
        row [ ([ 0; 1 ], 3) ];
        row [ ([ 0; 1 ], 4); ([ 2 ], 2); ([ 0; 1; 2 ], 5) ];
        row [ ([ 0; 1 ], 2); ([ 2 ], 3); ([ 0; 1; 2 ], 4) ];
      |]
  in
  Alcotest.(check (option (pair int int))) "hi falls back" (Some (3, 7)) (I.t_bounds inst);
  check_agree "no finite singleton" inst;
  (* No singletons at all. *)
  let global = Instance.identical ~m:3 ~lengths:[| 4; 2; 5 |] in
  Alcotest.(check (option (pair int int))) "identical machines" (Some (5, 11)) (I.t_bounds global);
  check_agree "identical machines" global

let test_edges () =
  let empty = Instance.make_exn (Topology.semi_partitioned 3) [||] in
  Alcotest.(check (option (pair int int))) "n = 0" (Some (0, 0)) (I.t_bounds empty);
  check_agree "n = 0" empty;
  for seed = 0 to 19 do
    let inst = Oracle.instance_of_seed ~max_m:1 seed in
    check_agree (Printf.sprintf "m = 1, seed %d" seed) inst;
    check_agree (Printf.sprintf "m = 1, seed %d, closed" seed) (closed inst)
  done;
  check_agree "Example II.1" (Families.example_ii1 ());
  for n = 3 to 6 do
    check_agree (Printf.sprintf "Example V.1, n = %d" n) (Families.example_v1 n)
  done

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let q t = QCheck_alcotest.to_alcotest t in
  ( "search_diff",
    [
      u "no finite singleton time" test_no_finite_singleton;
      u "n = 0, m = 1, paper examples" test_edges;
      q (prop "oracle corpus = old search" ~count:150 Oracle.instance_of_seed);
      q
        (prop "singleton-closed corpus = old search" ~count:150 (fun seed ->
             closed (Oracle.instance_of_seed seed)));
      q (prop "certify-batch topologies = old search" ~count:30 certify_batch);
      q (prop "families missing singletons = old search" ~count:150 gapped);
    ] )

(* Fault-injection harness (robustness tentpole).

   Three attack surfaces:
   - the parser: corrupted/malformed text must yield [Error], never raise;
   - the validators: structural mutations violating laminarity or
     monotonicity must be caught;
   - the solver pipeline: a budget exhaustion injected at an exact-path
     stage must either degrade to a re-certified 2-approximate schedule
     ([`Fallback]) or surface as a typed [Budget_exhausted] error
     ([`Fail]); at an LP-path stage, the last path, it always surfaces.

   Everything is deterministic: the fuzz streams are SplitMix64 with
   fixed seeds, so a failure here reproduces exactly.  The robust LP
   path is also compared with the plain pipeline on generated
   instances; QCHECK_LONG=1 draws 100 times as many:
   QCHECK_LONG=1 dune exec test/test_main.exe -- test faults *)

open Hs_model
open Hs_core
open Hs_workloads

(* Valid serialised instances used as fuzz bases, spanning all topology
   families of {!Test_util.random_instance}. *)
let base_texts =
  List.init 12 (fun i -> Instance_io.to_string (Test_util.random_instance (100 + i)))

let base_instances = List.init 12 (fun i -> Test_util.random_instance (200 + i))

(* ---- parser fuzzing -------------------------------------------------- *)

let test_parser_never_raises () =
  let rng = Rng.create 0xfa017 in
  let r = Mutators.fuzz_of_string rng ~iters:500 ~base:base_texts in
  Alcotest.(check int) "all inputs fed" 500 r.Mutators.total;
  match r.Mutators.escaped with
  | [] -> ()
  | (input, exn) :: _ ->
      Alcotest.failf "of_string raised %s on: %s" exn (String.escaped input)

let test_malformed_corpus_rejected () =
  List.iter
    (fun text ->
      match (try Ok (Instance_io.of_string text) with exn -> Error exn) with
      | Ok (Error _) -> ()
      | Ok (Ok _) -> Alcotest.failf "corpus input accepted: %s" (String.escaped text)
      | Error exn ->
          Alcotest.failf "of_string raised %s on corpus input: %s"
            (Printexc.to_string exn) (String.escaped text))
    Mutators.malformed_corpus

(* ---- validator fuzzing ----------------------------------------------- *)

let test_validators_catch_mutations () =
  let rng = Rng.create 0xfa018 in
  let r = Mutators.fuzz_validators rng ~iters:200 base_instances in
  Alcotest.(check int) "all mutations applied" 200 r.Mutators.total;
  (match r.Mutators.escaped with
  | [] -> ()
  | (label, exn) :: _ -> Alcotest.failf "validator raised %s on %s mutation" exn label);
  Alcotest.(check int) "no mutation slipped through" 0 r.Mutators.accepted

(* ---- pipeline fault injection ---------------------------------------- *)

(* A fixed mid-size instance: large enough that branch and bound needs
   many nodes, small enough that the LP path is instant. *)
let pipeline_instance =
  let rng = Rng.create 42 in
  let lam = Hs_laminar.Topology.clustered ~m:6 ~clusters:3 in
  Generators.hierarchical rng ~lam ~n:12 ~base:(1, 8) ~heterogeneity:1.8 ~overhead:0.3 ()

let check_valid_2approx ~what (o : Approx.robust_outcome) =
  (match Schedule.validate o.Approx.r_instance o.Approx.r_assignment o.Approx.r_schedule with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: schedule invalid: %s" what e);
  if o.Approx.r_makespan > 2 * o.Approx.r_lower_bound then
    Alcotest.failf "%s: makespan %d exceeds 2x lower bound %d" what o.Approx.r_makespan
      o.Approx.r_lower_bound

(* Injecting a fault into any LP-path stage surfaces as the typed
   error: the LP path is the last one, and no retry could recover a
   real exhaustion there, because it would spend the same shared pivot
   allowance. *)
let test_inject_lp_stages () =
  List.iter
    (fun stage ->
      let what = "inject " ^ Hs_error.stage_name stage in
      match Approx.solve_robust ~inject:stage pipeline_instance with
      | Error (Hs_error.Budget_exhausted { stage = s; _ } as e) when s = stage ->
          Alcotest.(check int) (what ^ ": exit code") 4 (Hs_error.exit_code e)
      | Error e -> Alcotest.failf "%s: wrong error: %s" what (Hs_error.to_string e)
      | Ok _ -> Alcotest.failf "%s: the injected fault was absorbed" what)
    [ Hs_error.Search; Hs_error.Lp; Hs_error.Rounding ]

(* With a node budget configured the exact path runs first; injecting a
   fault there must degrade to the LP 2-approximation. *)
let test_inject_exact_stages () =
  let budget = Budget.v ~bb_nodes:10_000_000 () in
  List.iter
    (fun stage ->
      let what = "inject " ^ Hs_error.stage_name stage in
      match Approx.solve_robust ~budget ~inject:stage pipeline_instance with
      | Error e -> Alcotest.failf "%s: no fallback succeeded: %s" what (Hs_error.to_string e)
      | Ok o ->
          check_valid_2approx ~what o;
          (match o.Approx.r_provenance with
          | Approx.Lp_approx -> ()
          | p -> Alcotest.failf "%s: expected the LP fallback, got %s" what
                   (Approx.provenance_to_string p));
          Alcotest.(check bool)
            (what ^ ": degradation recorded")
            true
            (o.Approx.r_fallbacks <> []))
    [ Hs_error.Bb; Hs_error.Sched ]

(* A genuinely exhausted node budget (no injection) takes the same
   fallback; the outcome records why. *)
let test_real_node_exhaustion () =
  match Approx.solve_robust ~budget:(Budget.v ~bb_nodes:50 ()) pipeline_instance with
  | Error e -> Alcotest.failf "fallback failed: %s" (Hs_error.to_string e)
  | Ok o ->
      check_valid_2approx ~what:"node exhaustion" o;
      (match o.Approx.r_provenance with
      | Approx.Lp_approx -> ()
      | Approx.Exact_optimal -> Alcotest.fail "50 nodes cannot prove this instance");
      (match o.Approx.r_fallbacks with
      | [ Hs_error.Budget_exhausted { stage = Hs_error.Bb; _ } ] -> ()
      | _ -> Alcotest.fail "expected exactly one branch-and-bound exhaustion record")

(* Under [`Fail] the same exhaustion surfaces as the typed error with
   the documented exit code. *)
let test_fail_mode_surfaces_error () =
  (match
     Approx.solve_robust
       ~budget:(Budget.v ~bb_nodes:50 ())
       ~on_exhausted:`Fail pipeline_instance
   with
  | Error (Hs_error.Budget_exhausted _ as e) ->
      Alcotest.(check int) "exit code" 4 (Hs_error.exit_code e)
  | Error e -> Alcotest.failf "wrong error: %s" (Hs_error.to_string e)
  | Ok _ -> Alcotest.fail "tiny node budget must not succeed in fail mode");
  (* A pivot budget too small for the LP path exhausts it even in
     fallback mode: the LP path is the last in the chain. *)
  match Approx.solve_robust ~budget:(Budget.v ~lp_pivots:3 ()) pipeline_instance with
  | Error (Hs_error.Budget_exhausted _ as e) ->
      Alcotest.(check int) "exit code" 4 (Hs_error.exit_code e)
  | Error e -> Alcotest.failf "wrong error: %s" (Hs_error.to_string e)
  | Ok _ -> Alcotest.fail "3 pivots must not solve this instance"

(* Sanity: with no budget and no injection the robust path agrees with
   the plain pipeline contract. *)
let test_unlimited_clean_path () =
  match Approx.solve_robust pipeline_instance with
  | Error e -> Alcotest.failf "clean run failed: %s" (Hs_error.to_string e)
  | Ok o ->
      check_valid_2approx ~what:"clean" o;
      Alcotest.(check bool) "no degradation" true (o.Approx.r_fallbacks = [])

(* ---- the robust LP path against the plain pipeline ----------------- *)

let pivot_counter = Hs_obs.Metrics.counter "simplex.pivots"

(* With a pivot allowance and no node budget, [solve_robust] is one run
   of the plain pipeline metered by that allowance.  With room to spare
   it returns the plain solve's outcome and spends exactly its pivots.
   With an allowance of [k] it succeeds iff the plain solve takes at
   most [k] pivots, and otherwise fails at the LP stage with all [k]
   spent.  [Error] names the first claim that fails. *)
let robust_agrees seed inst =
  let fail fmt = Printf.ksprintf Result.error fmt in
  let before = Hs_obs.Metrics.value pivot_counter in
  let plain = Approx.Exact.solve_checked inst in
  let spent = Hs_obs.Metrics.value pivot_counter - before in
  let run k = Approx.solve_robust ~budget:(Budget.v ~lp_pivots:k ()) inst in
  let same (o : Approx.Exact.outcome) (r : Approx.robust_outcome) =
    r.r_provenance = Approx.Lp_approx
    && r.r_fallbacks = []
    && r.r_lower_bound = o.t_lp
    && r.r_assignment = o.assignment
    && r.r_makespan = o.makespan
    && r.r_schedule = o.schedule
    && r.r_consumed.lp_pivots = Some spent
  in
  let k = Rng.int (Rng.create seed) ((2 * spent) + 1) in
  match (plain, run 1_000_000) with
  | Error e, Error e' ->
      if e = e' then Ok ()
      else fail "plain error %s, robust error %s" (Hs_error.to_string e) (Hs_error.to_string e')
  | Error e, Ok _ -> fail "plain solve failed (%s), robust solve did not" (Hs_error.to_string e)
  | Ok _, Error e -> fail "robust solve failed: %s" (Hs_error.to_string e)
  | Ok o, Ok r when not (same o r) -> fail "robust outcome differs from the plain solve"
  | Ok o, Ok _ -> (
      match run k with
      | Ok r ->
          if k < spent then fail "%d pivots sufficed where the plain solve took %d" k spent
          else if same o r then Ok ()
          else fail "allowance %d: outcome differs from the plain solve" k
      | Error (Hs_error.Budget_exhausted { stage = Hs_error.Lp; detail }) ->
          let used = Printf.sprintf "(used %d of %d pivots)" k k in
          if k >= spent then fail "exhausted at allowance %d, plain solve took %d" k spent
          else if not (String.ends_with ~suffix:used detail) then
            fail "allowance %d: detail %S does not end in %S" k detail used
          else Ok ()
      | Error e -> fail "allowance %d: wrong error %s" k (Hs_error.to_string e))

let robust_prop name ~count gen =
  QCheck.Test.make ~name ~count ~long_factor:100 Test_util.seed_arb (fun seed ->
      let inst = gen seed in
      match robust_agrees seed inst with
      | Ok () -> true
      | Error e ->
          QCheck.Test.fail_reportf "seed %d: %s\n%s" seed e (Instance_io.to_string inst))

let suite =
  let u name f = Alcotest.test_case name `Quick f in
  let q t = QCheck_alcotest.to_alcotest t in
  ( "faults",
    [
      u "parser survives 500 corrupted inputs" test_parser_never_raises;
      u "malformed corpus rejected" test_malformed_corpus_rejected;
      u "validators catch structural mutations" test_validators_catch_mutations;
      u "inject: LP-path stages surface typed errors" test_inject_lp_stages;
      u "inject: exact-path stages degrade safely" test_inject_exact_stages;
      u "real node-budget exhaustion falls back" test_real_node_exhaustion;
      u "fail mode surfaces typed budget errors" test_fail_mode_surfaces_error;
      u "unlimited budget: clean path" test_unlimited_clean_path;
      q (robust_prop "robust LP path = plain solve, oracle corpus" ~count:40 Oracle.instance_of_seed);
      q
        (robust_prop "robust LP path = plain solve, certify-batch topologies" ~count:6
           Test_search_diff.certify_batch);
    ] )

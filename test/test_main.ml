(* Aggregated alcotest runner for the whole repository. *)

let () =
  Alcotest.run "hsched"
    [
      Test_bigint.suite;
      Test_q.suite;
      Test_q_diff.suite;
      Test_simplex.suite;
      Test_laminar.suite;
      Test_model.suite;
      Test_io.suite;
      Test_schedulers.suite;
      Test_pipeline.suite;
      Test_search_diff.suite;
      Test_exact.suite;
      Test_memory.suite;
      Test_baselines.suite;
      Test_sim.suite;
      Test_workloads.suite;
      Test_realtime.suite;
      Test_edge_cases.suite;
      Test_consistency.suite;
      Test_faults.suite;
      Test_obs.suite;
      Test_exec.suite;
      Test_service.suite;
      Test_pushdown.suite;
      Test_differential.suite;
      Test_check.suite;
      Test_online.suite;
      Test_revised.suite;
      Test_pricing_diff.suite;
    ]

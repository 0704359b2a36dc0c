let () =
  Alcotest.run "repro"
    (List.concat
       [
         Test_engine.suites;
         Test_idle_lockstep.suites;
         Test_stats.suites;
         Test_topology.suites;
         Test_netsim.suites;
         Test_membership.suites;
         Test_protocol.suites;
         Test_tracing.suites;
         Test_rrmp.suites;
         Test_policies.suites;
         Test_baselines.suites;
         Test_experiments.suites;
         Test_parallel.suites;
         Test_shard.suites;
         Test_properties.suites;
         Test_codec.suites;
         Test_net.suites;
         Test_alloc_gates.suites;
         Test_edge_cases.suites;
         Test_misc.suites;
         Test_lint.suites;
       ])

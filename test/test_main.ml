let suites =
  List.concat
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
    ]

(* This run executes every registered case once. The groups below carry
   the model-based qchecks, the identity checks, the allocation gates
   and the lint battery; each keeps its registered case count, so a
   case that goes missing from one of them fails here. Change a count
   together with the cases it counts. *)
let pinned_counts =
  [
    ([ "protocol.gap_model"; "protocol.digest_index" ], 4);
    ([ "engine.idle_lockstep" ], 2);
    ([ "engine.sim" ], 13);
    ([ "engine.shard"; "netsim.fabric"; "rrmp.member_soa"; "rrmp.sharded" ], 22);
    ([ "experiments.parallel" ], 5);
    ([ "rrmp.allocation_gates" ], 11);
    ([ "lint.rules"; "lint.typed"; "lint.tree" ], 22);
    ([ "rrmp.codec"; "net.loopback" ], 21);
  ]

let cases_of group =
  List.concat_map (fun (name, cases) -> if String.equal name group then cases else []) suites

let test_pinned_counts () =
  List.iter
    (fun (groups, expected) ->
      Alcotest.(check int)
        (String.concat " + " groups ^ " cases")
        expected
        (List.length (List.concat_map cases_of groups)))
    pinned_counts;
  Alcotest.(check bool)
    "engine.sim holds the reference-queue qcheck" true
    (List.exists
       (fun (name, _, _) -> String.equal name "matches reference queue")
       (cases_of "engine.sim"))

let () =
  Alcotest.run "repro"
    (suites
    @ [
        ( "tier1.registry",
          [ Alcotest.test_case "pinned group sizes" `Quick test_pinned_counts ] );
      ])

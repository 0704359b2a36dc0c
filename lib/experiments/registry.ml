type entry = {
  id : string;
  description : string;
  paper_ref : string;
  run : quick:bool -> Report.t;
}

let all =
  [
    {
      id = "fig3";
      description = "P(k long-term bufferers): Poisson analytic vs simulated coin flips";
      paper_ref = "Figure 3";
      run =
        (fun ~quick ->
          if quick then Fig3.run ~mc_trials:2_000 () else Fig3.run ());
    };
    {
      id = "fig4";
      description = "P(no long-term bufferer) vs C: e^-C vs coin-flip and protocol MC";
      paper_ref = "Figure 4";
      run =
        (fun ~quick ->
          if quick then Fig4.run ~mc_trials:10_000 ~protocol_trials:50 ()
          else Fig4.run ());
    };
    {
      id = "fig6";
      description = "Average short-term buffering time vs #initial holders";
      paper_ref = "Figure 6";
      run = (fun ~quick -> if quick then Fig6.run ~trials:5 () else Fig6.run ());
    };
    {
      id = "fig7";
      description = "#received vs #buffered over time, 1 initial holder";
      paper_ref = "Figure 7";
      run = (fun ~quick -> ignore quick; Fig7.run ());
    };
    {
      id = "fig8";
      description = "Search time vs #bufferers";
      paper_ref = "Figure 8";
      run = (fun ~quick -> if quick then Fig8.run ~trials:20 () else Fig8.run ());
    };
    {
      id = "fig9";
      description = "Search time vs region size (10 bufferers)";
      paper_ref = "Figure 9";
      run =
        (fun ~quick ->
          if quick then
            Fig9.run ~trials:10 ~region_sizes:[ 100; 200; 400; 700; 1000 ] ()
          else Fig9.run ());
    };
    {
      id = "ext_overhead";
      description = "Buffer-space overhead: two-phase vs fixed-time vs stability vs buffer-all";
      paper_ref = "extension (Section 1 motivation)";
      run = (fun ~quick -> if quick then Ext_overhead.run ~trials:2 () else Ext_overhead.run ());
    };
    {
      id = "ext_traffic";
      description = "Control traffic: feedback-based idle detection vs history exchange";
      paper_ref = "extension (Section 3.1 claim)";
      run =
        (fun ~quick ->
          if quick then Ext_traffic.run ~region_sizes:[ 20; 50; 100 ] ()
          else Ext_traffic.run ());
    };
    {
      id = "ext_latency_vs_c";
      description = "Downstream recovery latency vs C (buffer/latency trade-off)";
      paper_ref = "extension (Section 3.2 trade-off)";
      run =
        (fun ~quick ->
          if quick then Ext_latency_vs_c.run ~trials:4 () else Ext_latency_vs_c.run ());
    };
    {
      id = "ext_load_balance";
      description = "Distribution of the buffering burden: RRMP vs tree repair server";
      paper_ref = "extension (Section 6 claim)";
      run =
        (fun ~quick ->
          if quick then Ext_load_balance.run ~trials:2 () else Ext_load_balance.run ());
    };
    {
      id = "ext_reliability";
      description = "Reliability-violation probability for a late detector vs C";
      paper_ref = "extension (Section 5)";
      run =
        (fun ~quick ->
          if quick then Ext_reliability.run ~trials:40 () else Ext_reliability.run ());
    };
    {
      id = "ext_churn";
      description = "Long-term buffer survival under churn: handoff vs crash";
      paper_ref = "extension (Section 3.2 handoff)";
      run = (fun ~quick -> if quick then Ext_churn.run ~trials:25 () else Ext_churn.run ());
    };
    {
      id = "ext_search_vs_backoff";
      description = "Multicast query + backoff replies vs random search";
      paper_ref = "extension (Section 3.3 motivation)";
      run =
        (fun ~quick ->
          if quick then Ext_search_vs_backoff.run ~trials:10 ()
          else Ext_search_vs_backoff.run ());
    };
    {
      id = "ext_lambda";
      description = "Remote-request fan-out lambda: latency vs duplicate traffic";
      paper_ref = "extension (Section 2.2)";
      run = (fun ~quick -> if quick then Ext_lambda.run ~trials:8 () else Ext_lambda.run ());
    };
    {
      id = "ext_protocols";
      description = "RRMP vs SRM vs pbcast vs tree-RMTP on one lossy workload";
      paper_ref = "extension (Section 1 survey)";
      run =
        (fun ~quick ->
          if quick then Ext_protocols.run ~trials:1 () else Ext_protocols.run ());
    };
    {
      id = "ext_model";
      description = "Analytical search model vs simulated search time";
      paper_ref = "extension (Section 3.3 analysis)";
      run =
        (fun ~quick ->
          if quick then Ext_model.run ~trials:15 () else Ext_model.run ());
    };
    {
      id = "ext_implosion";
      description = "Message implosion under bandwidth limits: server-based vs distributed repair";
      paper_ref = "extension (Section 1 motivation)";
      run =
        (fun ~quick ->
          if quick then Ext_implosion.run ~trials:2 () else Ext_implosion.run ());
    };
    {
      id = "ext_adaptive";
      description = "Fixed vs adaptive idle threshold under mis-estimated RTT";
      paper_ref = "extension (Section 3.1 'choice of T')";
      run =
        (fun ~quick ->
          if quick then Ext_adaptive.run ~trials:3 () else Ext_adaptive.run ());
    };
    {
      id = "ext_selection";
      description = "Randomized vs hashed long-term bufferer selection";
      paper_ref = "extension (Section 3.4)";
      run =
        (fun ~quick ->
          if quick then Ext_selection.run ~trials:20 () else Ext_selection.run ());
    };
    {
      id = "ext_scale";
      description = "Large-group scale-out: region sweep at fixed per-member load (exact deadlines)";
      paper_ref = "extension (Section 1 'scalability' motivation)";
      run =
        (fun ~quick ->
          if quick then
            Ext_scale.run ~sizes:[ 256; 512; 1024 ] ~msgs:16 ~burst:4 ~trials:1 ()
          else Ext_scale.run ());
    };
    {
      id = "ext_scale_sharded";
      description =
        "Region-sharded scale-out: SoA member state over conservative-time shards, 10^5 members";
      paper_ref = "extension (Section 6 scalability)";
      run =
        (fun ~quick ->
          if quick then
            Ext_scale.run_sharded ~cells:[ (4, 64); (8, 128) ] ~msgs:12 ~burst:4 ()
          else Ext_scale.run_sharded ());
    };
    {
      id = "ext_scale_1m";
      description =
        "Million-member scale path: one per-shard event spine, 1024 x 1024 members";
      paper_ref = "extension (Section 6 scalability)";
      run =
        (fun ~quick ->
          if quick then Ext_scale.run_1m ~cells:[ (8, 32) ] ~msgs:8 ~burst:4 ()
          else Ext_scale.run_1m ());
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids = List.map (fun e -> e.id) all

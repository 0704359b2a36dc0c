(* Benchmark harness.

   Part 1 regenerates every table/figure of the paper (and every
   extension experiment) and prints the same rows/series the paper
   reports — this is the reproduction harness proper.

   Part 2 is a Bechamel microbenchmark suite: one Test.make per
   figure-generating workload (a reduced parameterization of the same
   code path) plus the hot simulator primitives, so performance
   regressions in the substrate are visible.

   Part 3 turns the measurements into machine-readable trajectory
   files — BENCH_engine.json (simulator primitives, ns/op and
   events/sec) and BENCH_protocol.json (macro protocol workloads,
   wall-clock and simulated-events throughput) — so successive commits
   can be compared without re-parsing console output.

   Part 4 measures the domain-parallel experiment runner: each
   workload runs once at -j 1 and once at -j N, the two reports are
   required to be byte-identical, and BENCH_parallel.json records the
   wall-clock pair (the speedup is their ratio).

   Part 5 (BENCH_scale.json) covers the two scale paths: the classic
   Member path's region-size sweep and its deadline churn (exact
   per-message Timer.Idle deadlines), and the region-sharded
   members x shards sweep (Rrmp.Sharded over Engine.Shard), whose rows
   re-assert the shard-count identity guarantee while timing it.

   Part 6 (BENCH_alloc.json) is the per-path allocation-gate report:
   minor-heap words per op for each named hot path (deliver, gap-note,
   local/remote repair, regional-repair fan-out, deadline touch)
   against the budgets in Experiments.Alloc_paths — the same table
   the rrmp.allocation_gates test suite asserts on every dune runtest.

   Usage:
     main.exe              full reproduction + benchmarks + JSON files
     main.exe --smoke      one reduced Bechamel iteration per test, then
                           emit the JSON files and re-parse them (used by
                           the [bench-smoke] dune alias as a CI check)
     main.exe -j N         worker domains for the parallel suite
                           (default 4, at least 2)
     main.exe -s N         max shard count for the sharded sweep
                           (default 4)
     main.exe --scale-only just the two scale sweeps + BENCH_scale.json
     main.exe --alloc-gates just the allocation gates + BENCH_alloc.json
                           (--smoke shrinks op counts; budgets are
                           identical either way)
     main.exe --net        RRMP over UDP loopback + codec benches into
                           BENCH_net.json (--smoke: reduced)

   Any other argument prints the usage and exits 2. *)

let reproduce () =
  Format.printf "=====================================================================@.";
  Format.printf " Reproduction: Optimizing Buffer Management for Reliable Multicast@.";
  Format.printf " (Xiao, Birman, van Renesse - DSN 2002)@.";
  Format.printf "=====================================================================@.@.";
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      let t0 = Unix.gettimeofday () in
      let report = e.Experiments.Registry.run ~quick:true in
      Format.printf "%a@." Experiments.Report.pp report;
      Format.printf "[%s | %s | %.1fs]@.@." e.Experiments.Registry.id
        e.Experiments.Registry.paper_ref
        (Unix.gettimeofday () -. t0))
    Experiments.Registry.all

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

(* [ops] is how many interesting operations one run of the staged
   function performs; it converts ns/run into ops/sec in the JSON. *)
type bench = { test : Bechamel.Test.t; ops : int }

let bench_rng =
  {
    ops = 1000;
    test =
      Bechamel.Test.make ~name:"engine/rng.bits64 x1k"
        (Bechamel.Staged.stage (fun () ->
             let rng = Engine.Rng.create ~seed:1 in
             let acc = ref 0L in
             for _ = 1 to 1000 do
               acc := Int64.add !acc (Engine.Rng.bits64 rng)
             done;
             !acc));
  }

let bench_sim =
  {
    ops = 1000;
    test =
      Bechamel.Test.make ~name:"engine/sim 1k timer cascade"
        (Bechamel.Staged.stage (fun () ->
             let sim = Engine.Sim.create () in
             let count = ref 0 in
             let rec tick () =
               incr count;
               if !count < 1000 then ignore (Engine.Sim.schedule sim ~delay:1.0 tick)
             in
             ignore (Engine.Sim.schedule sim ~delay:1.0 tick);
             Engine.Sim.run sim;
             !count));
  }

let bench_sim_cancel =
  {
    ops = 1000;
    test =
      Bechamel.Test.make ~name:"engine/sim schedule+cancel churn 1k"
        (Bechamel.Staged.stage (fun () ->
             let sim = Engine.Sim.create () in
             for i = 1 to 1000 do
               let h = Engine.Sim.schedule sim ~delay:(float_of_int (i mod 97)) ignore in
               Engine.Sim.cancel h
             done;
             Engine.Sim.run sim;
             Engine.Sim.pending sim));
  }

let bench_poisson =
  {
    ops = 21;
    test =
      Bechamel.Test.make ~name:"stats/poisson pmf k=0..20"
        (Bechamel.Staged.stage (fun () ->
             let acc = ref 0.0 in
             for k = 0 to 20 do
               acc := !acc +. Stats.Dist.poisson_pmf ~lambda:6.0 k
             done;
             !acc));
  }

(* one Test.make per figure: the same code path as the reproduction,
   at a parameterization small enough to iterate *)

let bench_fig3 =
  {
    ops = 1;
    test =
      Bechamel.Test.make ~name:"fig3 (coin-flip MC, 200 trials)"
        (Bechamel.Staged.stage (fun () -> Experiments.Fig3.run ~mc_trials:200 ()));
  }

let bench_fig4 =
  {
    ops = 1;
    test =
      Bechamel.Test.make ~name:"fig4 (MC + 5 protocol runs/C)"
        (Bechamel.Staged.stage (fun () ->
             Experiments.Fig4.run ~mc_trials:1_000 ~protocol_trials:5 ()));
  }

let bench_fig6 =
  {
    ops = 1;
    test =
      Bechamel.Test.make ~name:"fig6 (1 trial/point)"
        (Bechamel.Staged.stage (fun () -> Experiments.Fig6.run ~trials:1 ()));
  }

let bench_fig7 =
  {
    ops = 1;
    test =
      Bechamel.Test.make ~name:"fig7 (one sampled run)"
        (Bechamel.Staged.stage (fun () -> Experiments.Fig7.run ()));
  }

let bench_fig8 =
  {
    ops = 1;
    test =
      Bechamel.Test.make ~name:"fig8 (3 trials/point)"
        (Bechamel.Staged.stage (fun () -> Experiments.Fig8.run ~trials:3 ()));
  }

let bench_fig9 =
  {
    ops = 1;
    test =
      Bechamel.Test.make ~name:"fig9 (2 trials, 3 sizes)"
        (Bechamel.Staged.stage (fun () ->
             Experiments.Fig9.run ~trials:2 ~region_sizes:[ 100; 400; 1000 ] ()));
  }

let bench_delivery =
  {
    ops = 1;
    test =
      Bechamel.Test.make ~name:"rrmp/one lossless multicast, n=100"
        (Bechamel.Staged.stage (fun () ->
             let group =
               Rrmp.Group.create ~seed:1 ~topology:(Topology.single_region ~size:100) ()
             in
             let id = Rrmp.Group.multicast group () in
             Rrmp.Group.run group;
             Rrmp.Group.count_received group id));
  }

let bench_recovery =
  {
    ops = 1;
    test =
      Bechamel.Test.make ~name:"rrmp/regional loss recovery, 2x20"
        (Bechamel.Staged.stage (fun () ->
             let topology = Topology.chain ~sizes:[ 20; 20 ] in
             let group = Rrmp.Group.create ~seed:1 ~topology () in
             let id =
               Rrmp.Group.multicast_reaching group
                 ~reach:(fun n -> Node_id.to_int n < 20)
                 ()
             in
             List.iter
               (fun m -> Rrmp.Member.inject_loss m id)
               (Rrmp.Group.members_of_region group (Region_id.of_int 1));
             Rrmp.Group.run group;
             Rrmp.Group.count_received group id));
  }

let engine_benches =
  [ bench_rng; bench_sim; bench_sim_cancel; bench_poisson ]

let macro_benches =
  [ bench_fig3; bench_fig4; bench_fig6; bench_fig7; bench_fig8; bench_fig9;
    bench_delivery; bench_recovery ]

type bench_result = { name : string; ns_per_run : float; ops_per_run : int }

let run_benches ~smoke benches =
  let open Bechamel in
  let cfg =
    if smoke then Benchmark.cfg ~limit:1 ~quota:(Time.second 0.01) ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  List.concat_map
    (fun { test; ops } ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.fold
        (fun name raw acc ->
          match
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raw
          with
          | exception _ ->
            Format.printf "  %-40s (analysis failed)@." name;
            acc
          | result ->
            (match Analyze.OLS.estimates result with
             | Some [ est ] ->
               Format.printf "  %-40s %12.0f ns/run@." name est;
               { name; ns_per_run = est; ops_per_run = ops } :: acc
             | Some _ | None ->
               Format.printf "  %-40s (no estimate)@." name;
               acc))
        results [])
    benches

(* ------------------------------------------------------------------ *)
(* Macro protocol workloads: simulated-event throughput                *)
(* ------------------------------------------------------------------ *)

type macro_result = { m_name : string; wall_s : float; sim_events : int }

let measure_macro m_name build =
  let t0 = Unix.gettimeofday () in
  let group = build () in
  Rrmp.Group.run group;
  let wall_s = Unix.gettimeofday () -. t0 in
  { m_name; wall_s; sim_events = Engine.Sim.events_executed (Rrmp.Group.sim group) }

(* fig6-shaped: one region, every multicast reaches everyone, buffering
   and gossip dominate — measures the common no-loss fast path *)
let macro_single_region ~size ~msgs () =
  let group = Rrmp.Group.create ~seed:7 ~topology:(Topology.single_region ~size) () in
  for _ = 1 to msgs do
    ignore (Rrmp.Group.multicast group ())
  done;
  group

(* fig8-shaped: two regions, the second misses every initial multicast
   and recovers regionally — measures the error-recovery path *)
let macro_recovery ~size ~msgs () =
  let topology = Topology.chain ~sizes:[ size; size ] in
  let group = Rrmp.Group.create ~seed:7 ~topology () in
  for _ = 1 to msgs do
    let id =
      Rrmp.Group.multicast_reaching group ~reach:(fun n -> Node_id.to_int n < size) ()
    in
    List.iter
      (fun m -> Rrmp.Member.inject_loss m id)
      (Rrmp.Group.members_of_region group (Region_id.of_int 1))
  done;
  group

let run_macros ~smoke () =
  let scale = if smoke then 1 else 4 in
  let workloads =
    [
      ("macro/single-region n=200", macro_single_region ~size:200 ~msgs:(5 * scale));
      ("macro/recovery 2x50", macro_recovery ~size:50 ~msgs:(5 * scale));
    ]
  in
  List.map
    (fun (name, build) ->
      let r = measure_macro name build in
      Format.printf "  %-40s %8.3f s  %9d sim events  %12.0f ev/s@." r.m_name r.wall_s
        r.sim_events
        (float_of_int r.sim_events /. Float.max r.wall_s 1e-9);
      r)
    workloads

(* ------------------------------------------------------------------ *)
(* JSON trajectory files                                               *)
(* ------------------------------------------------------------------ *)

let bench_result_json { name; ns_per_run; ops_per_run } =
  let ns_per_op = ns_per_run /. float_of_int ops_per_run in
  Tracing.Json.Obj
    [
      ("name", Tracing.Json.String name);
      ("ns_per_run", Tracing.Json.Float ns_per_run);
      ("ops_per_run", Tracing.Json.Int ops_per_run);
      ("ns_per_op", Tracing.Json.Float ns_per_op);
      ("ops_per_sec", Tracing.Json.Float (1e9 /. Float.max ns_per_op 1e-9));
    ]

let macro_result_json { m_name; wall_s; sim_events } =
  Tracing.Json.Obj
    [
      ("name", Tracing.Json.String m_name);
      ("wall_s", Tracing.Json.Float wall_s);
      ("sim_events", Tracing.Json.Int sim_events);
      ( "events_per_sec",
        Tracing.Json.Float (float_of_int sim_events /. Float.max wall_s 1e-9) );
    ]

let suite_json ~suite ~smoke results =
  Tracing.Json.Obj
    [
      ("schema", Tracing.Json.String "bench-trajectory/v1");
      ("suite", Tracing.Json.String suite);
      ("mode", Tracing.Json.String (if smoke then "smoke" else "full"));
      ("results", Tracing.Json.List results);
    ]

let write_json path v =
  let oc = open_out path in
  output_string oc (Tracing.Json.to_string v);
  close_out oc;
  Format.printf "wrote %s@." path

(* smoke check: the emitted files must round-trip through the parser
   and carry the expected schema/shape *)
let validate_json path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let v = Tracing.Json.of_string text in
  let schema = Option.bind (Tracing.Json.member "schema" v) Tracing.Json.to_string_opt in
  if schema <> Some "bench-trajectory/v1" then
    failwith (path ^ ": missing or wrong schema tag");
  match Option.bind (Tracing.Json.member "results" v) Tracing.Json.to_list_opt with
  | None -> failwith (path ^ ": missing results array")
  | Some results ->
    List.iter
      (fun r ->
        match Option.bind (Tracing.Json.member "name" r) Tracing.Json.to_string_opt with
        | None -> failwith (path ^ ": result entry without a name")
        | Some _ -> ())
      results;
    Format.printf "validated %s (%d results)@." path (List.length results)

(* ------------------------------------------------------------------ *)
(* Shared GC sampling harness                                          *)
(* ------------------------------------------------------------------ *)

(* Every suite that charges wall-clock or minor-heap words to a
   workload funnels through this one window: minor words are read
   outermost (the counter is per-domain and monotonic, so enclosing
   the clock reads costs a constant few words, amortized over the
   suites' op counts), wall-clock innermost. *)
let gc_sampled f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (v, wall_s, words)

(* ------------------------------------------------------------------ *)
(* Parallel runner: sequential vs multi-domain wall-clock              *)
(* ------------------------------------------------------------------ *)

let render_report report = Format.asprintf "%a" Experiments.Report.pp report

(* run [f] with the worker-count setting temporarily forced to [jobs] *)
let at_jobs jobs f =
  let saved = Engine.Pool.default_workers () in
  Engine.Pool.set_default_workers jobs;
  Fun.protect ~finally:(fun () -> Engine.Pool.set_default_workers saved) f

type parallel_result = {
  p_name : string;
  seq_wall_s : float;
  par_wall_s : float;
  p_jobs : int;
}

(* trial-heavy workloads: enough independent Monte-Carlo trials that
   the fan-out has real work to spread across domains *)
let parallel_workloads ~smoke =
  let scale = if smoke then 1 else 4 in
  [
    ("parallel/fig6", fun () -> ignore (Experiments.Fig6.run ~trials:(5 * scale) ()));
    ("parallel/fig8", fun () -> ignore (Experiments.Fig8.run ~trials:(5 * scale) ()));
    ( "parallel/ext_protocols",
      fun () -> ignore (Experiments.Ext_protocols.run ~trials:(2 * scale) ()) );
  ]

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let run_parallel ~smoke ~jobs () =
  (* determinism is checked on a real report, not just the timings *)
  let check_identical () =
    let seq = at_jobs 1 (fun () -> render_report (Experiments.Fig6.run ~trials:3 ())) in
    let par = at_jobs jobs (fun () -> render_report (Experiments.Fig6.run ~trials:3 ())) in
    if seq <> par then failwith "parallel suite: fig6 report differs between -j 1 and -j N"
  in
  check_identical ();
  List.map
    (fun (p_name, work) ->
      let seq_wall_s = at_jobs 1 (fun () -> timed work) in
      let par_wall_s = at_jobs jobs (fun () -> timed work) in
      Format.printf "  %-40s seq %7.3f s  par(-j %d) %7.3f s@." p_name seq_wall_s jobs
        par_wall_s;
      { p_name; seq_wall_s; par_wall_s; p_jobs = jobs })
    (parallel_workloads ~smoke)

let parallel_result_json { p_name; seq_wall_s; par_wall_s; p_jobs } =
  Tracing.Json.Obj
    [
      ("name", Tracing.Json.String p_name);
      ("seq_wall_s", Tracing.Json.Float seq_wall_s);
      ("par_wall_s", Tracing.Json.Float par_wall_s);
      ("jobs", Tracing.Json.Int p_jobs);
    ]

(* ------------------------------------------------------------------ *)
(* Protocol-state suite: before/after numbers for the per-member       *)
(* hot-path data structures (BENCH_state.json)                         *)
(* ------------------------------------------------------------------ *)

(* Each entry reports ns/op and minor-heap words/op. The digest-storm
   "before" entry runs the retained list-walking [digest_has]; its
   "after" entry runs the indexed digest and carries a
   [speedup_vs_oracle] column against it. *)

type state_result = {
  st_name : string;
  st_ns_per_op : float;
  st_minor_words_per_op : float;
  st_ops : int;
  st_runs : int;
  st_speedup : float option;
}

(* wall-clock + Gc.minor_words delta over [runs] repetitions, after one
   untimed warm-up run (first-call allocation of tables, etc.) *)
let measure_state ~runs ~ops st_name f =
  ignore (Sys.opaque_identity (f ()));
  let keep = ref 0 in
  let (), wall_s, words =
    gc_sampled (fun () ->
        for _ = 1 to runs do
          keep := !keep + f ()
        done)
  in
  ignore (Sys.opaque_identity !keep);
  let total = float_of_int (runs * ops) in
  {
    st_name;
    st_ns_per_op = wall_s *. 1e9 /. total;
    st_minor_words_per_op = words /. total;
    st_ops = ops;
    st_runs = runs;
    st_speedup = None;
  }

let with_speedup ~vs r =
  { r with st_speedup = Some (vs.st_ns_per_op /. Float.max r.st_ns_per_op 1e-9) }

(* long-session soak: [n] sequence numbers with every 100th dropped,
   batched repairs every 1000, a [received] probe per packet and
   counter samples every 100 — the shape of a member that stays
   subscribed for a long session *)
let gap_soak ~n () =
  let module G = Protocol.Gap_detect in
  let g = G.create () in
  let acc = ref 0 in
  for seq = 0 to n - 1 do
    if seq mod 100 <> 99 then begin
      (match G.note_data g seq with
       | `Fresh gaps -> acc := !acc + List.length gaps
       | `Duplicate -> ());
      if G.received g (seq / 2) then incr acc;
      if seq mod 100 = 50 then acc := !acc + G.missing_count g + G.received_count g
    end;
    if seq mod 1000 = 999 then
      (* the repair batch for the block that just ended *)
      for k = 0 to 9 do
        G.note_repaired g (seq - 900 + (k * 100))
      done
  done;
  !acc

(* a History digest shaped like the stability baseline's: many sources,
   each with a long horizon and a sprinkling of missing seqs *)
let storm_digest ~sources ~horizon : Protocol.Recv_log.digest =
  List.init sources (fun s ->
      let missing = List.filter (fun i -> i mod 7 = 3) (List.init horizon Fun.id) in
      (Node_id.of_int s, (horizon, missing)))

let storm_probes ~sources ~horizon ~count =
  Array.init count (fun i ->
      Protocol.Msg_id.make
        ~source:(Node_id.of_int (i mod sources))
        ~seq:((i * 37) mod (horizon + 20)))

let run_state ~smoke () =
  let n = if smoke then 5_000 else 100_000 in
  let soak_runs = if smoke then 1 else 3 in
  let soak =
    measure_state ~runs:soak_runs ~ops:n "state/gap-soak windowed" (gap_soak ~n)
  in
  let sources = 16 and horizon = 400 in
  let digest = storm_digest ~sources ~horizon in
  let probes = storm_probes ~sources ~horizon ~count:1024 in
  let dig_runs = if smoke then 5 else 200 in
  let count_has has = Array.fold_left (fun c id -> if has id then c + 1 else c) 0 probes in
  let dig name f = measure_state ~runs:dig_runs ~ops:(Array.length probes) name f in
  let dig_before =
    dig "state/digest-storm list-walk (before)" (fun () ->
        count_has (Protocol.Recv_log.digest_has digest))
  in
  let dig_after =
    (* index built once per run — the handle_history amortization *)
    with_speedup ~vs:dig_before
      (dig "state/digest-storm indexed (after)" (fun () ->
           let idx = Protocol.Recv_log.index digest in
           count_has (Protocol.Recv_log.indexed_has idx)))
  in
  (* fig8/fig9 wall clock at the same reduced parameterization as the
     protocol-suite Bechamel entries, so the two files are comparable *)
  let fig_trials = if smoke then 1 else 3 in
  let fig8 =
    measure_state ~runs:1 ~ops:1 "state/fig8 reduced wall" (fun () ->
        ignore (Sys.opaque_identity (Experiments.Fig8.run ~trials:fig_trials ()));
        0)
  in
  let fig9 =
    measure_state ~runs:1 ~ops:1 "state/fig9 reduced wall" (fun () ->
        ignore
          (Sys.opaque_identity
             (Experiments.Fig9.run ~trials:(if smoke then 1 else 2)
                ~region_sizes:[ 100; 400; 1000 ] ()));
        0)
  in
  let results = [ soak; dig_before; dig_after; fig8; fig9 ] in
  List.iter
    (fun r ->
      Format.printf "  %-42s %12.1f ns/op %10.2f words/op%s@." r.st_name r.st_ns_per_op
        r.st_minor_words_per_op
        (match r.st_speedup with
         | Some s -> Format.asprintf "  %5.2fx vs before" s
         | None -> ""))
    results;
  results

let state_result_json r =
  Tracing.Json.Obj
    ([
       ("name", Tracing.Json.String r.st_name);
       ("ns_per_op", Tracing.Json.Float r.st_ns_per_op);
       ("minor_words_per_op", Tracing.Json.Float r.st_minor_words_per_op);
       ("ops_per_run", Tracing.Json.Int r.st_ops);
       ("runs", Tracing.Json.Int r.st_runs);
     ]
    @
    match r.st_speedup with
    | Some s -> [ ("speedup_vs_oracle", Tracing.Json.Float s) ]
    | None -> [])

(* ------------------------------------------------------------------ *)
(* Scale suite: the classic Member path at growing region size         *)
(* (BENCH_scale.json)                                                  *)
(* ------------------------------------------------------------------ *)

(* The ext_scale workload over Member's exact per-message Timer.Idle
   deadlines, measured with the observer off so the emission-gating
   fast path is what's timed; minor-heap words are charged per
   delivered message. *)

type scale_result = {
  sc_name : string;
  sc_members : int;
  sc_quantum : float;
  sc_shards : int; (* 1 = the sequential single-Sim path *)
  sc_wall_s : float;
  sc_sim_events : int;
  sc_delivered : int;
  sc_minor_words_per_op : float;
  sc_extra : (string * float) option; (* JSON key + value vs the paired row *)
}

let measure_scale ~n ~msgs ~burst sc_name =
  let stats, sc_wall_s, words =
    gc_sampled (fun () ->
        Experiments.Ext_scale.run_once ~n ~msgs ~burst ~seed:1 ~observe:false ())
  in
  {
    sc_name;
    sc_members = n;
    sc_quantum = 0.0;
    sc_shards = 1;
    sc_wall_s;
    sc_sim_events = stats.Experiments.Ext_scale.sim_events;
    sc_delivered = stats.Experiments.Ext_scale.delivered;
    sc_minor_words_per_op = words /. float_of_int (max 1 stats.Experiments.Ext_scale.delivered);
    sc_extra = None;
  }

let print_scale r =
  Format.printf "  %-44s %8.3f s  %9d sim events  %8.2f words/op%s@." r.sc_name
    r.sc_wall_s r.sc_sim_events r.sc_minor_words_per_op
    (match r.sc_extra with
     | Some (key, s) -> Format.asprintf "  %5.2f %s" s key
     | None -> "")

(* The deadline-management component in isolation, at the sweep's
   deadline population: [members * msgs] concurrent Timer.Idle
   deadlines, each with the one action a buffer entry keeps beside it,
   [rounds] full feedback passes (every deadline touched), then expiry.
   This is the op mix the buffer's arm/touch generate inside the sweep,
   with the per-delivery protocol work (which dominates the whole-run
   numbers above) stripped away. *)

let churn_timers ~members ~msgs ~rounds () =
  let module Idle = Engine.Timer.Idle in
  let sim = Engine.Sim.create () in
  let fired = ref 0 in
  let timers =
    Array.init (members * msgs) (fun _ ->
        let idle = Idle.create () in
        let rec action () = if Idle.expired sim idle action then incr fired in
        Idle.arm sim idle ~timeout:100.0 action;
        idle)
  in
  for r = 1 to rounds do
    ignore
      (Engine.Sim.schedule_at sim ~at:(float_of_int r *. 20.0) (fun () ->
           Array.iter (Idle.touch sim) timers))
  done;
  Engine.Sim.run sim;
  (fired, sim)

let measure_churn ~members ~msgs sc_name f =
  let (fired, sim), sc_wall_s, words = gc_sampled f in
  if !fired <> members * msgs then
    failwith (sc_name ^ ": some deadlines never fired");
  {
    sc_name;
    sc_members = members;
    sc_quantum = 0.0;
    sc_shards = 1;
    sc_wall_s;
    sc_sim_events = Engine.Sim.events_executed sim;
    sc_delivered = !fired;
    sc_minor_words_per_op = words /. float_of_int (max 1 !fired);
    sc_extra = None;
  }

let run_scale ~smoke () =
  let sizes = if smoke then [ 256 ] else [ 256; 1024; 2048; 5000 ] in
  let msgs = if smoke then 8 else 48 in
  let burst = if smoke then 4 else 8 in
  let sweep =
    List.map
      (fun n ->
        let r = measure_scale ~n ~msgs ~burst (Printf.sprintf "scale/sweep n=%d" n) in
        print_scale r;
        r)
      sizes
  in
  let c_members = if smoke then 256 else 5000 in
  let c_msgs = if smoke then 8 else 48 in
  let rounds = if smoke then 2 else 4 in
  let churn =
    measure_churn ~members:c_members ~msgs:c_msgs
      (Printf.sprintf "scale/deadline-churn %dx%d" c_members c_msgs)
      (churn_timers ~members:c_members ~msgs:c_msgs ~rounds)
  in
  print_scale churn;
  sweep @ [ churn ]

(* ------------------------------------------------------------------ *)
(* Region-sharded sweep: members × shards over Rrmp.Sharded            *)
(* ------------------------------------------------------------------ *)

(* One (members, shards) row. The wall clock is measured at -j =
   shards, one worker domain per shard window; minor words come from a
   separate -j 1 pass where every window runs inline on this domain,
   because Gc.minor_words is a per-domain counter and the parallel
   pass would hide worker-domain allocation. The two passes (and every
   shard count) must agree on the simulation-domain statistics — the
   identity guarantee is re-asserted here on every row. *)
let measure_shard_row ~regions ~per_region ~msgs ~burst ~shards ~expect sc_name =
  let run () =
    Experiments.Ext_scale.run_once_sharded ~regions ~per_region ~msgs ~burst ~quantum:10.0
      ~seed:1 ~shards ~observe:false ()
  in
  let (alloc_stats, _, _), _, words = gc_sampled (fun () -> at_jobs 1 run) in
  let (stats, _, _), sc_wall_s, _ = gc_sampled (fun () -> at_jobs shards run) in
  let delivered = stats.Experiments.Ext_scale.delivered in
  let events = stats.Experiments.Ext_scale.sim_events in
  if
    delivered <> alloc_stats.Experiments.Ext_scale.delivered
    || events <> alloc_stats.Experiments.Ext_scale.sim_events
  then failwith (sc_name ^ ": -j 1 and -j N runs disagree");
  (match expect with
   | Some (d, e) when d <> delivered || e <> events ->
     failwith (sc_name ^ ": shard count changed the simulation result")
   | _ -> ());
  {
    sc_name;
    sc_members = regions * per_region;
    sc_quantum = 10.0;
    sc_shards = shards;
    sc_wall_s;
    sc_sim_events = events;
    sc_delivered = delivered;
    sc_minor_words_per_op = words /. float_of_int (max 1 delivered);
    sc_extra = None;
  }

(* The SoA hot op in isolation: feedback touches against a populated
   arena are bare int-array stores (the ring re-buckets lazily at sweep
   time), so the unobserved path must measure 0.00 minor words/op —
   the emission-gating claim made precise at the sweep's population. *)
let measure_soa_touch ~members ~msgs ~rounds sc_name =
  let soa =
    Rrmp.Member_soa.create ~now:0.0 ~n:members ~cap:msgs ~quantum:10.0 ~idle_timeout:1e9
      ~lifetime:None
      ~on_expire:(fun ~member:_ ~seq:_ -> ())
      ~on_gap:(fun ~member:_ ~seq:_ -> ())
      ()
  in
  for m = 0 to members - 1 do
    for s = 0 to msgs - 1 do
      ignore (Rrmp.Member_soa.insert_short soa m s ~now:0.0)
    done
  done;
  let ops = members * msgs * rounds in
  let (), sc_wall_s, words =
    gc_sampled (fun () ->
        for r = 1 to rounds do
          (* opaque_identity keeps [now] boxed: the classic compiler
             unboxes a let-bound float and re-boxes it at every call
             site, which would charge 2 words/op to the harness, not
             the touch path *)
          let now = Sys.opaque_identity (float_of_int (20 * r)) in
          for m = 0 to members - 1 do
            for s = 0 to msgs - 1 do
              Rrmp.Member_soa.touch soa m s ~now
            done
          done
        done)
  in
  {
    sc_name;
    sc_members = members;
    sc_quantum = 10.0;
    sc_shards = 1;
    sc_wall_s;
    sc_sim_events = 0;
    sc_delivered = ops;
    sc_minor_words_per_op = words /. float_of_int (max 1 ops);
    sc_extra = None;
  }

(* Per-region fixed overhead, gated: the spine acceptance metric. The
   per-region-scaffolding path paid 243.7 marginal heap words and 3.0
   Sim schedules per region (one Sim-scheduled ring sweep chain each);
   the per-shard spine's budget is a >= 4x reduction on words and ~1
   schedule (the injected data parcel). A regression past the budget
   fails the bench loudly, like the allocation gates. *)
let words_per_region_budget = 61.0

let schedules_per_region_budget = 1.5

let measure_region_overhead () =
  let (words_per_region, scheds_per_region), sc_wall_s, _ =
    gc_sampled (fun () -> Experiments.Ext_scale.region_overhead ())
  in
  if words_per_region > words_per_region_budget then
    failwith
      (Printf.sprintf "region overhead: %.1f marginal words/region exceeds the %.1f budget"
         words_per_region words_per_region_budget);
  if scheds_per_region > schedules_per_region_budget then
    failwith
      (Printf.sprintf "region overhead: %.2f Sim schedules/region exceeds the %.1f budget"
         scheds_per_region schedules_per_region_budget);
  {
    sc_name = "scale/region-overhead marginal words+schedules";
    sc_members = 272;
    sc_quantum = 10.0;
    sc_shards = 1;
    sc_wall_s;
    sc_sim_events = 0;
    sc_delivered = 256; (* differenced regions: per-op = per-region *)
    sc_minor_words_per_op = words_per_region;
    sc_extra = Some ("schedules_per_region", scheds_per_region);
  }

(* The million-member acceptance rows (ext_scale_1m's workload). Unlike
   the sweep rows these are measured in a single pass each — at this
   size a second identity pass would double the dominant cost of the
   whole bench — so minor words come from the -j 1 base row (the
   counter is per-domain) and are copied into the -j 4 row, whose
   simulation statistics are still asserted identical to the base.
   In smoke mode the cell scales down (same code path end to end). *)
let run_1m_rows ~smoke () =
  let regions, per_region = if smoke then (16, 64) else (1024, 1024) in
  let msgs = 8 and burst = 4 in
  let run ~shards () =
    Experiments.Ext_scale.run_once_sharded ~regions ~per_region ~msgs ~burst ~quantum:10.0
      ~seed:1 ~shards ~observe:false ()
  in
  let (stats, _, _), sc_wall_s, words = gc_sampled (fun () -> at_jobs 1 (run ~shards:1)) in
  let delivered = stats.Experiments.Ext_scale.delivered in
  let base =
    {
      sc_name = Printf.sprintf "scale/1m %dx%d shards=1" regions per_region;
      sc_members = regions * per_region;
      sc_quantum = 10.0;
      sc_shards = 1;
      sc_wall_s;
      sc_sim_events = stats.Experiments.Ext_scale.sim_events;
      sc_delivered = delivered;
      sc_minor_words_per_op = words /. float_of_int (max 1 delivered);
      sc_extra = None;
    }
  in
  print_scale base;
  let (stats4, _, _), wall4, _ = gc_sampled (fun () -> at_jobs 4 (run ~shards:4)) in
  if
    stats4.Experiments.Ext_scale.delivered <> delivered
    || stats4.Experiments.Ext_scale.sim_events <> base.sc_sim_events
  then failwith (base.sc_name ^ ": shard count changed the simulation result");
  let r4 =
    {
      base with
      sc_name = Printf.sprintf "scale/1m %dx%d shards=4" regions per_region;
      sc_shards = 4;
      sc_wall_s = wall4;
    }
  in
  print_scale r4;
  [ base; r4 ]

(* Shard counts 1..max_shards (powers of two) per cell; a row's speedup
   is the 1-shard row's wall_s over its own. The identity guarantee
   means the statistics are the same at every shard count, so the rows
   are comparable across machines. *)
let run_shard_sweep ~smoke ~max_shards () =
  let cells = if smoke then [ (4, 64) ] else [ (16, 512); (32, 1024); (64, 1600) ] in
  let msgs = if smoke then 8 else 24 in
  let burst = if smoke then 4 else 8 in
  let counts =
    let rec up s = if s > max_shards then [] else s :: up (2 * s) in
    match up 1 with [] -> [ 1 ] | l -> l
  in
  let touch =
    let members = if smoke then 256 else 20_000 in
    let t_msgs = if smoke then 8 else 32 in
    let rounds = if smoke then 2 else 4 in
    measure_soa_touch ~members ~msgs:t_msgs ~rounds
      (Printf.sprintf "scale/soa-touch %dx%d unobserved" members t_msgs)
  in
  print_scale touch;
  let overhead = measure_region_overhead () in
  print_scale overhead;
  let sweep_rows =
    List.concat_map
    (fun (regions, per_region) ->
      let counts = List.filter (fun s -> s = 1 || s <= regions) counts in
      let row ~shards ~expect =
        measure_shard_row ~regions ~per_region ~msgs ~burst ~shards ~expect
          (Printf.sprintf "scale/sharded %dx%d shards=%d" regions per_region shards)
      in
      let base = row ~shards:1 ~expect:None in
      print_scale base;
      base
      :: List.map
           (fun shards ->
             let r =
               row ~shards ~expect:(Some (base.sc_delivered, base.sc_sim_events))
             in
             print_scale r;
             r)
           (List.filter (fun s -> s > 1) counts))
      cells
  in
  (touch :: overhead :: sweep_rows) @ run_1m_rows ~smoke ()

let scale_result_json r =
  Tracing.Json.Obj
    ([
       ("name", Tracing.Json.String r.sc_name);
       ("members", Tracing.Json.Int r.sc_members);
       ("quantum_ms", Tracing.Json.Float r.sc_quantum);
       ("shards", Tracing.Json.Int r.sc_shards);
       ("wall_s", Tracing.Json.Float r.sc_wall_s);
       ("sim_events", Tracing.Json.Int r.sc_sim_events);
       ( "events_per_sec",
         Tracing.Json.Float (float_of_int r.sc_sim_events /. Float.max r.sc_wall_s 1e-9) );
       ("delivered", Tracing.Json.Int r.sc_delivered);
       ("minor_words_per_op", Tracing.Json.Float r.sc_minor_words_per_op);
     ]
    @
    match r.sc_extra with
    | Some (key, s) -> [ (key, Tracing.Json.Float s) ]
    | None -> [])

(* ------------------------------------------------------------------ *)
(* Allocation gates (BENCH_alloc.json)                                 *)
(* ------------------------------------------------------------------ *)

(* The per-path budgets live in Experiments.Alloc_paths (the same table
   test/test_alloc_gates.ml asserts under dune runtest); this component
   reports the measured words/op into the trajectory JSON and fails
   loudly if a gate is violated, so a full bench run can never publish
   numbers that the test suite would reject. *)

let alloc_result_json (r : Experiments.Alloc_paths.result) =
  Tracing.Json.Obj
    [
      ("name", Tracing.Json.String r.Experiments.Alloc_paths.name);
      ("what", Tracing.Json.String r.Experiments.Alloc_paths.what);
      ("ops", Tracing.Json.Int r.Experiments.Alloc_paths.ops);
      ( "minor_words_per_op",
        Tracing.Json.Float r.Experiments.Alloc_paths.minor_words_per_op );
      ("ns_per_op", Tracing.Json.Float r.Experiments.Alloc_paths.ns_per_op);
      ("budget_words_per_op", Tracing.Json.Float r.Experiments.Alloc_paths.budget);
      ("exact", Tracing.Json.Bool r.Experiments.Alloc_paths.exact);
    ]

let run_alloc_gates ~smoke () =
  let results = Experiments.Alloc_paths.run ~quick:smoke () in
  List.iter (fun r -> Format.printf "  %a@." Experiments.Alloc_paths.pp_result r) results;
  write_json "BENCH_alloc.json"
    (suite_json ~suite:"alloc-gates" ~smoke (List.map alloc_result_json results));
  if smoke then validate_json "BENCH_alloc.json";
  match Experiments.Alloc_paths.failures results with
  | [] -> ()
  | fs ->
    List.iter print_endline fs;
    failwith "allocation gates violated"

let bench ~smoke ~jobs ~max_shards () =
  Format.printf "=====================================================================@.";
  Format.printf " Bechamel microbenchmarks (monotonic clock per run)@.";
  Format.printf "=====================================================================@.";
  let engine = run_benches ~smoke engine_benches in
  let micro = run_benches ~smoke macro_benches in
  Format.printf "---------------------------------------------------------------------@.";
  Format.printf " Macro protocol workloads@.";
  Format.printf "---------------------------------------------------------------------@.";
  let macros = run_macros ~smoke () in
  Format.printf "---------------------------------------------------------------------@.";
  Format.printf " Protocol-state data structures (before/after)@.";
  Format.printf "---------------------------------------------------------------------@.";
  let states = run_state ~smoke () in
  Format.printf "---------------------------------------------------------------------@.";
  Format.printf " Parallel experiment runner (deterministic; -j %d)@." jobs;
  Format.printf "---------------------------------------------------------------------@.";
  let parallels = run_parallel ~smoke ~jobs () in
  Format.printf "---------------------------------------------------------------------@.";
  Format.printf " Scale sweep: classic Member path, exact per-message deadlines@.";
  Format.printf "---------------------------------------------------------------------@.";
  let scales = run_scale ~smoke () in
  Format.printf "---------------------------------------------------------------------@.";
  Format.printf " Region-sharded sweep (members x shards, max %d shards)@." max_shards;
  Format.printf "---------------------------------------------------------------------@.";
  let scales = scales @ run_shard_sweep ~smoke ~max_shards () in
  Format.printf "---------------------------------------------------------------------@.";
  Format.printf " Allocation gates (minor words per hot-path op)@.";
  Format.printf "---------------------------------------------------------------------@.";
  run_alloc_gates ~smoke ();
  write_json "BENCH_engine.json"
    (suite_json ~suite:"engine" ~smoke (List.rev_map bench_result_json engine));
  write_json "BENCH_protocol.json"
    (suite_json ~suite:"protocol" ~smoke
       (List.rev_map bench_result_json micro @ List.map macro_result_json macros));
  write_json "BENCH_state.json"
    (suite_json ~suite:"protocol-state" ~smoke (List.map state_result_json states));
  write_json "BENCH_parallel.json"
    (suite_json ~suite:"parallel" ~smoke (List.map parallel_result_json parallels));
  write_json "BENCH_scale.json"
    (suite_json ~suite:"scale" ~smoke (List.map scale_result_json scales));
  if smoke then begin
    validate_json "BENCH_engine.json";
    validate_json "BENCH_protocol.json";
    validate_json "BENCH_state.json";
    validate_json "BENCH_parallel.json";
    validate_json "BENCH_scale.json"
  end

let usage =
  "main.exe [--smoke] [-j N] [-s N] [--alloc-gates | --net | --scale-only]"

let () =
  let jobs = ref 4 in
  let max_shards = ref 4 in
  let smoke = ref false in
  let mode = ref `Full in
  let at_least lo name r =
    Arg.Int
      (fun n ->
        if n >= lo then r := n
        else raise (Arg.Bad (Printf.sprintf "%s must be at least %d, got %d" name lo n)))
  in
  let only m = Arg.Unit (fun () -> mode := m) in
  let spec =
    Arg.align
      [
        ("-j", at_least 2 "-j" jobs, "N worker domains for the parallel suite (default 4)");
        ("--jobs", at_least 2 "--jobs" jobs, "N same as -j");
        ("-s", at_least 1 "-s" max_shards, "N max shard count for the sharded sweep (default 4)");
        ("--shards", at_least 1 "--shards" max_shards, "N same as -s");
        ("--smoke", Arg.Set smoke, " reduced sizes; emitted JSON is re-parsed");
        ("--alloc-gates", only `Alloc_gates, " allocation gates + BENCH_alloc.json only");
        ("--net", only `Net, " UDP loopback + codec benches into BENCH_net.json");
        ("--scale-only", only `Scale, " the two scale sweeps + BENCH_scale.json only");
      ]
  in
  (* anything unrecognized prints the usage and exits 2: a typo must
     never fall through to the multi-minute full run *)
  Arg.parse spec (fun a -> raise (Arg.Bad ("unknown argument " ^ a))) usage;
  let smoke = !smoke in
  match !mode with
  | `Alloc_gates -> run_alloc_gates ~smoke ()
  | `Net ->
    write_json "BENCH_net.json" (suite_json ~suite:"net" ~smoke (Net_bench.run ~smoke ()));
    if smoke then validate_json "BENCH_net.json"
  | `Scale ->
    let scales = run_scale ~smoke () @ run_shard_sweep ~smoke ~max_shards:!max_shards () in
    write_json "BENCH_scale.json"
      (suite_json ~suite:"scale" ~smoke (List.map scale_result_json scales))
  | `Full ->
    if not smoke then reproduce ();
    bench ~smoke ~jobs:!jobs ~max_shards:!max_shards ()

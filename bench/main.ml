(* Benchmark harness: one pass that rewrites the four bench-trajectory
   files (schema bench-trajectory/v1) that back a gate or a claim in
   README.md and DESIGN.md.

   BENCH_engine.json  the Sim primitives, timed with Bechamel: a 1k
                      timer cascade and a schedule+cancel churn (the
                      one measurement of lazy cancellation).
   BENCH_scale.json   the classic Member path's region-size sweep and
                      its deadline churn (exact per-message Timer.Idle
                      deadlines), the region-sharded members x shards
                      sweep (Rrmp.Sharded over Engine.Shard, whose rows
                      re-assert the shard-count identity guarantee
                      while timing it) and the million-member rows.
   BENCH_net.json     RRMP members over UDP loopback sockets and the
                      binary codec (Net_bench).
   BENCH_alloc.json   minor-heap words per op for each named hot path
                      against the budgets in Experiments.Alloc_paths,
                      the table the rrmp.allocation_gates suite asserts
                      on every dune runtest. A violated gate fails the
                      run after the file is written.

   The paper's figures are reproduced by `rrmp_sim run all`, not here.

   Usage:
     main.exe          every suite at full size; writes the four files
     main.exe --smoke  reduced sizes, then re-parse the four files (the
                       [bench-smoke] dune alias runs this on every
                       dune runtest)
     main.exe -s N     max shard count for the sharded sweep (default 4)

   Any other argument prints the usage and exits 2. *)

(* ------------------------------------------------------------------ *)
(* JSON trajectory files                                               *)
(* ------------------------------------------------------------------ *)

let suite_json ~suite ~smoke results =
  Json.Obj
    [
      ("schema", Json.String "bench-trajectory/v1");
      ("suite", Json.String suite);
      ("mode", Json.String (if smoke then "smoke" else "full"));
      ("results", Json.List results);
    ]

let write_json path v =
  let oc = open_out path in
  output_string oc (Json.to_string v);
  close_out oc;
  Format.printf "wrote %s@." path

(* smoke check: the emitted files must round-trip through the parser
   and carry the expected schema/shape *)
let validate_json path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let v = Json.of_string text in
  let schema = Option.bind (Json.member "schema" v) Json.to_string_opt in
  if schema <> Some "bench-trajectory/v1" then
    failwith (path ^ ": missing or wrong schema tag");
  match Option.bind (Json.member "results" v) Json.to_list_opt with
  | None -> failwith (path ^ ": missing results array")
  | Some results ->
    List.iter
      (fun r ->
        match Option.bind (Json.member "name" r) Json.to_string_opt with
        | None -> failwith (path ^ ": result entry without a name")
        | Some _ -> ())
      results;
    Format.printf "validated %s (%d results)@." path (List.length results)

let section title =
  Format.printf "---------------------------------------------------------------------@.";
  Format.printf " %s@." title;
  Format.printf "---------------------------------------------------------------------@."

(* ------------------------------------------------------------------ *)
(* Engine primitives: Bechamel                                         *)
(* ------------------------------------------------------------------ *)

(* [ops] is how many interesting operations one run of the staged
   function performs; it converts ns/run into ops/sec in the JSON. *)
type bench = { test : Bechamel.Test.t; ops : int }

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

let bench_result_json { name; ns_per_run; ops_per_run } =
  let ns_per_op = ns_per_run /. float_of_int ops_per_run in
  Json.Obj
    [
      ("name", Json.String name);
      ("ns_per_run", Json.Float ns_per_run);
      ("ops_per_run", Json.Int ops_per_run);
      ("ns_per_op", Json.Float ns_per_op);
      ("ops_per_sec", Json.Float (1e9 /. Float.max ns_per_op 1e-9));
    ]

(* ------------------------------------------------------------------ *)
(* Shared GC sampling harness                                          *)
(* ------------------------------------------------------------------ *)

(* Every scale row charges wall-clock and minor-heap words through this
   one window: minor words are read outermost (the counter is
   per-domain and monotonic, so enclosing the clock reads costs a
   constant few words, amortized over the rows' op counts), wall-clock
   innermost. *)
let gc_sampled f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (v, wall_s, words)

(* run [f] with the worker-count setting temporarily forced to [jobs] *)
let at_jobs jobs f =
  let saved = Engine.Pool.default_workers () in
  Engine.Pool.set_default_workers jobs;
  Fun.protect ~finally:(fun () -> Engine.Pool.set_default_workers saved) f

(* ------------------------------------------------------------------ *)
(* Scale suite: the classic Member path at growing region size         *)
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
  }

let print_scale r =
  Format.printf "  %-44s %8.3f s  %9d sim events  %8.2f words/op@." r.sc_name r.sc_wall_s
    r.sc_sim_events r.sc_minor_words_per_op

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

(* Shard counts 1..max_shards (powers of two) per cell. The identity
   guarantee means the statistics are the same at every shard count,
   so the rows are comparable across machines. *)
let run_shard_sweep ~smoke ~max_shards () =
  let cells = if smoke then [ (4, 64) ] else [ (16, 512); (32, 1024); (64, 1600) ] in
  let msgs = if smoke then 8 else 24 in
  let burst = if smoke then 4 else 8 in
  let more_shards =
    let rec up s = if s > max_shards then [] else s :: up (2 * s) in
    up 2
  in
  let sweep_rows =
    List.concat_map
      (fun (regions, per_region) ->
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
             (List.filter (fun s -> s <= regions) more_shards))
      cells
  in
  sweep_rows @ run_1m_rows ~smoke ()

let scale_result_json r =
  Json.Obj
    [
      ("name", Json.String r.sc_name);
      ("members", Json.Int r.sc_members);
      ("quantum_ms", Json.Float r.sc_quantum);
      ("shards", Json.Int r.sc_shards);
      ("wall_s", Json.Float r.sc_wall_s);
      ("sim_events", Json.Int r.sc_sim_events);
      ( "events_per_sec",
        Json.Float (float_of_int r.sc_sim_events /. Float.max r.sc_wall_s 1e-9) );
      ("delivered", Json.Int r.sc_delivered);
      ("minor_words_per_op", Json.Float r.sc_minor_words_per_op);
    ]

(* ------------------------------------------------------------------ *)
(* Allocation gates                                                    *)
(* ------------------------------------------------------------------ *)

let alloc_result_json (r : Experiments.Alloc_paths.result) =
  Json.Obj
    [
      ("name", Json.String r.Experiments.Alloc_paths.name);
      ("what", Json.String r.Experiments.Alloc_paths.what);
      ("ops", Json.Int r.Experiments.Alloc_paths.ops);
      ("minor_words_per_op", Json.Float r.Experiments.Alloc_paths.minor_words_per_op);
      ("ns_per_op", Json.Float r.Experiments.Alloc_paths.ns_per_op);
      ("budget_words_per_op", Json.Float r.Experiments.Alloc_paths.budget);
      ("exact", Json.Bool r.Experiments.Alloc_paths.exact);
    ]

let usage = "main.exe [--smoke] [-s N]"

let () =
  let max_shards = ref 4 in
  let smoke = ref false in
  let shards_arg =
    Arg.Int
      (fun n ->
        if n >= 1 then max_shards := n
        else raise (Arg.Bad (Printf.sprintf "-s must be at least 1, got %d" n)))
  in
  let spec =
    Arg.align
      [
        ("-s", shards_arg, "N max shard count for the sharded sweep (default 4)");
        ("--shards", shards_arg, "N same as -s");
        ("--smoke", Arg.Set smoke, " reduced sizes; emitted JSON is re-parsed");
      ]
  in
  (* anything unrecognized prints the usage and exits 2: a typo must
     never fall through to the full run *)
  Arg.parse spec (fun a -> raise (Arg.Bad ("unknown argument " ^ a))) usage;
  let smoke = !smoke in
  let emit path ~suite results =
    write_json path (suite_json ~suite ~smoke results);
    if smoke then validate_json path
  in
  section "Engine primitives (Bechamel, monotonic clock per run)";
  emit "BENCH_engine.json" ~suite:"engine"
    (List.map bench_result_json (run_benches ~smoke [ bench_sim; bench_sim_cancel ]));
  section "Scale sweep: classic Member path, exact per-message deadlines";
  let scale = run_scale ~smoke () in
  section (Printf.sprintf "Region-sharded sweep (members x shards, max %d shards)" !max_shards);
  let scale = scale @ run_shard_sweep ~smoke ~max_shards:!max_shards () in
  emit "BENCH_scale.json" ~suite:"scale" (List.map scale_result_json scale);
  section "RRMP over UDP loopback, codec";
  emit "BENCH_net.json" ~suite:"net" (Net_bench.run ~smoke ());
  section "Allocation gates (minor words per hot-path op)";
  let gates = Experiments.Alloc_paths.run ~quick:smoke () in
  List.iter (fun r -> Format.printf "  %a@." Experiments.Alloc_paths.pp_result r) gates;
  emit "BENCH_alloc.json" ~suite:"alloc-gates" (List.map alloc_result_json gates);
  match Experiments.Alloc_paths.failures gates with
  | [] -> ()
  | fs ->
    List.iter print_endline fs;
    failwith "allocation gates violated"

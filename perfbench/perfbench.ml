(* The benchmark program: see perfbench/README.md.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1
   perfbench.exe --self-test

   With --trace 0 it runs untraced rounds of workload W for S seconds
   (at least [min_rounds]) and prints the end-to-end metrics; with
   --trace 1 it runs two untraced rounds and one traced round and
   prints the per-layer metrics. The last line of standard output is
   one JSON object; a correctness violation prints it with
   "correct": false and exits 1. *)

let min_rounds = 3

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type runner = {
  round : unit -> Outcome.t * Obs.t;  (* one untraced round *)
  observed : (unit -> Outcome.t * Obs.t) option;
      (* an untimed pass that must reproduce [round]'s outputs and
         yields the observations [round] does not collect *)
  traced : Span.t -> depth_hist:int array -> tick:(unit -> unit) -> Outcome.t * Obs.t;
}

let workloads = [ "wan_recovery"; "spine_scale"; "udp_loopback" ]

let runner ~smoke ~seed = function
  | "wan_recovery" ->
    let inputs = Wan.prepare ~smoke ~seed () in
    {
      round = (fun () -> Wan.run inputs);
      observed = None;
      traced = (fun sp ~depth_hist ~tick -> Wan.run_traced inputs sp ~depth_hist ~tick);
    }
  | "spine_scale" ->
    let inputs = Spine.prepare ~smoke ~seed () in
    {
      round = (fun () -> (Spine.run inputs, Obs.create ()));
      observed =
        Some
          (fun () ->
            let obs = Obs.create () in
            (Spine.run ~observe:obs inputs, obs));
      traced = (fun sp ~depth_hist:_ ~tick:_ -> (Spine.run ~spans:sp inputs, Obs.create ()));
    }
  | "udp_loopback" ->
    let inputs = Udp.prepare ~smoke ~seed () in
    {
      round = (fun () -> Udp.run inputs);
      observed = None;
      traced = (fun sp ~depth_hist ~tick -> Udp.run ~spans:sp ~depth_hist ~tick inputs);
    }
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("deliveries_per_s", "1/s");
    ("recovery_p50_ms", "ms");
    ("recovery_p90_ms", "ms");
    ("buffer_msg_ms_per_member", "msg.ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("engine.events", "count");
    ("engine.scheduled", "count");
    ("engine.cancel_ratio", "ratio");
    ("engine.dispatch_s", "s");
    ("engine.queue_depth_p99", "count");
    ("netsim.send_s", "s");
    ("netsim.sends", "count");
    ("netsim.packets", "count");
  ]
  @ List.map (fun cls -> ("netsim.packets." ^ cls, "count")) Wan.classes
  @ [
      ("rrmp.recv_s", "s");
      ("rrmp.timer_s", "s");
      ("rrmp.multicast_s", "s");
      ("rrmp.recoveries", "count");
      ("rrmp.recovery_p99_ms", "ms");
      ("rrmp.searches", "count");
      ("rrmp.unanswerable", "count");
      ("rrmp.repair_yield", "ratio");
      ("buffer.short_term_ms_mean", "ms");
      ("buffer.peak", "msg");
      ("buffer.long_term_per_msg_region", "count");
      ("spine.create_s", "s");
      ("spine.multicast_s", "s");
      ("spine.run_s", "s");
      ("fabric.parcels", "count");
      ("spine.touches", "count");
      ("spine.discarded", "count");
      ("transport.send_s", "s");
      ("transport.recv_s", "s");
      ("transport.datagrams", "count");
      ("transport.bytes", "B");
      ("transport.backpressure_drops", "count");
      ("transport.decode_errors", "count");
      ("transport.sys_s", "s");
      ("transport.recv_yield", "ratio");
      ("codec.encode_ns", "ns");
      ("codec.decode_ns", "ns");
      ("gc.alloc_words_per_delivery", "words");
      ("gc.promoted_words_per_delivery", "words");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.minor_s", "s");
      ("gc.major_s", "s");
      ("trace.overhead_s", "s");
      ("trace.unattributed_share", "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The run time of a round made of each lap's fastest repetition.
   Every round repeats the same deterministic work, lap for lap, and
   other tenants of a shared host only ever add time to it, for
   stretches of seconds; a median over rounds follows that load, the
   fastest repetition of each lap much less. *)
let best_run_s outcomes =
  let parts = Array.length (List.hd outcomes).Outcome.part_run_s in
  let best k = List.fold_left (fun m o -> Float.min m o.Outcome.part_run_s.(k)) infinity outcomes in
  Array.fold_left ( +. ) 0.0 (Array.init parts best)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let count o k = Option.value ~default:0.0 (List.assoc_opt k o.Outcome.counts)

(* p99 of a histogram of integer samples *)
let hist_p99 h =
  let total = Array.fold_left ( + ) 0 h in
  if total = 0 then 0.0
  else begin
    let target = float_of_int total *. 0.99 in
    let rec go i acc =
      let acc = acc + h.(i) in
      if float_of_int acc >= target || i = Array.length h - 1 then float_of_int i
      else go (i + 1) acc
    in
    go 0 0
  end

let violations = ref []
let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt

let check_same ~what ~reference o =
  let a = Outcome.signature reference and b = Outcome.signature o in
  if a <> b then violation "%s does not reproduce the reference outputs:\n  %s\n  %s" what a b

(* decode errors break correctness; backpressure drops are real kernel
   behaviour, and each one is counted as a failed obligation *)
let check_transport o =
  if count o "transport.decode_errors" > 0.0 then
    violation "udp_loopback: %.0f decode errors" (count o "transport.decode_errors")

let failed o = o.Outcome.undelivered + int_of_float (count o "transport.backpressure_drops")

(* the round's own observations, or those of the runner's observed
   pass, which must reproduce [reference] and agree with the session's
   recovery count and latency sum (the sums fold in different orders) *)
let observations d ~workload ~reference obs =
  match d.observed with
  | None -> obs
  | Some pass ->
    Gc.full_major ();
    let o, obs = pass () in
    check_same ~what:(workload ^ " observed pass") ~reference o;
    if obs.Obs.recoveries <> o.Outcome.recoveries
       || Float.abs (obs.Obs.latency_sum -. o.Outcome.latency_sum)
          > 1e-9 *. Float.abs o.Outcome.latency_sum
    then
      violation "%s observer saw %d recoveries (sum %g), the session counted %d (sum %g)"
        workload obs.Obs.recoveries obs.Obs.latency_sum o.Outcome.recoveries
        o.Outcome.latency_sum;
    obs

let print_result ~attempted ~failed metrics =
  let correct = !violations = [] in
  List.iter (fun v -> prerr_endline ("perfbench: " ^ v)) (List.rev !violations);
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           let v = if Float.is_finite v then v else 0.0 in
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body;
  correct

let with_units catalogue values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> (name, unit, v)
      | None -> failwith ("metric not computed: " ^ name))
    catalogue

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)
(* ------------------------------------------------------------------ *)

let measure ~smoke ~seed ~seconds workload =
  let d = runner ~smoke ~seed workload in
  let start = Timing.now () in
  let rounds = ref [] in
  (* the footprint of one round in a fresh process: later rounds reuse
     the heap, and how far fragmentation lifts the high-water mark
     would depend on how many rounds the machine's speed allowed *)
  let peak_rss_mb = ref nan in
  while
    List.length !rounds < min_rounds || (Timing.now () -. start < seconds && not smoke)
  do
    Gc.full_major ();
    rounds := d.round () :: !rounds;
    if Float.is_nan !peak_rss_mb then peak_rss_mb := Timing.peak_rss_mb ()
  done;
  let peak_rss_mb = !peak_rss_mb in
  let rounds = List.rev !rounds in
  let first, first_obs = List.hd rounds in
  List.iteri
    (fun i (o, _) -> check_same ~what:(Printf.sprintf "%s round %d" workload (i + 1)) ~reference:first o)
    rounds;
  List.iter (fun (o, _) -> check_transport o) rounds;
  let obs = observations d ~workload ~reference:first first_obs in
  let outcomes = List.map fst rounds in
  let values =
    [
      ("setup_s", median (List.map (fun o -> o.Outcome.setup_s) outcomes));
      ("deliveries_per_s", float_of_int first.Outcome.deliveries /. best_run_s outcomes);
      ("recovery_p50_ms", Obs.quantile obs 0.50);
      ("recovery_p90_ms", Obs.quantile obs 0.90);
      ("buffer_msg_ms_per_member", Outcome.occupancy first);
      ("peak_rss_mb", peak_rss_mb);
    ]
  in
  Printf.eprintf "%s seed %d: %d rounds, %d recoveries, run_s %s\n%!" workload seed
    (List.length outcomes) first.Outcome.recoveries
    (String.concat " " (List.map (fun o -> Printf.sprintf "%.3f" o.Outcome.run_s) outcomes));
  (* every round reproduces round 1, so its obligations are the seed's *)
  (with_units end_to_end values, first.Outcome.obligations, failed first)

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

(* kept spans go to perfbench/out/ when run from the repository root *)
let spans_path workload seed =
  if not (Sys.file_exists "perfbench") then None
  else begin
    let dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Some (Filename.concat dir (Printf.sprintf "%s-seed%d.spans.tsv" workload seed))
  end

let trace ~smoke ~seed workload =
  let d = runner ~smoke ~seed workload in
  (* the untraced reference: wall time, GC counts and kernel time of
     the second of two rounds (the first grows the heap) *)
  Gc.full_major ();
  ignore (d.round () : Outcome.t * Obs.t);
  Gc.full_major ();
  let plain, plain_obs = d.round () in
  check_transport plain;
  let obs = observations d ~workload ~reference:plain plain_obs in
  let gc = Gc_trace.create () in
  let sp = Span.create () in
  let depth_hist = Array.make (1 lsl 18) 0 in
  Gc.full_major ();
  Gc_trace.reset gc;
  let traced, _ = d.traced sp ~depth_hist ~tick:(fun () -> Gc_trace.poll gc) in
  Gc_trace.poll gc;
  check_same ~what:(workload ^ " traced run") ~reference:plain traced;
  check_transport traced;
  if Gc_trace.lost gc > 0 then
    Printf.eprintf "perfbench: %d runtime events lost; gc.minor_s/gc.major_s undercount\n"
      (Gc_trace.lost gc);
  let wall = Span.root_wall_s sp in
  let self name = Span.self_s sp name in
  let c = count traced in
  let u = plain.Outcome.usage in
  let deliveries = float_of_int plain.Outcome.deliveries in
  let promotions =
    match List.assoc_opt "lt.promotions" traced.Outcome.counts with
    | Some v -> v
    | None -> float_of_int obs.Obs.promotions
  in
  let values =
    [
      ("engine.events", float_of_int traced.Outcome.events);
      ("engine.scheduled", float_of_int traced.Outcome.scheduled);
      ( "engine.cancel_ratio",
        1.0 -. ratio (float_of_int traced.Outcome.events) (float_of_int traced.Outcome.scheduled) );
      ("engine.dispatch_s", self Span.engine_dispatch);
      ("engine.queue_depth_p99", hist_p99 depth_hist);
      ("netsim.send_s", self Span.netsim_send);
      ("netsim.sends", c "netsim.sends");
      ("netsim.packets", c "netsim.packets");
    ]
    @ List.map (fun cls -> ("netsim.packets." ^ cls, c ("netsim.packets." ^ cls))) Wan.classes
    @ [
        ("rrmp.recv_s", self Span.rrmp_recv);
        ("rrmp.timer_s", self Span.rrmp_timer);
        ("rrmp.multicast_s", self Span.rrmp_multicast);
        ("rrmp.recoveries", float_of_int traced.Outcome.recoveries);
        ("rrmp.recovery_p99_ms", Obs.quantile obs 0.99);
        ("rrmp.searches", float_of_int obs.Obs.searches);
        ("rrmp.unanswerable", float_of_int obs.Obs.unanswerable);
        ("rrmp.repair_yield", ratio (float_of_int traced.Outcome.recoveries) (c "repairs.delivered"));
        ("buffer.short_term_ms_mean", ratio obs.Obs.idle_ms_sum (float_of_int obs.Obs.idle));
        ("buffer.peak", c "buffer.peak");
        ("buffer.long_term_per_msg_region", ratio promotions (c "lt.msg_regions"));
        ("spine.create_s", self Span.spine_create);
        ("spine.multicast_s", self Span.spine_multicast);
        ("spine.run_s", self Span.spine_run);
        ("fabric.parcels", c "fabric.parcels");
        ("spine.touches", c "spine.touches");
        ("spine.discarded", c "spine.discarded");
        ("transport.send_s", self Span.transport_send);
        ("transport.recv_s", self Span.transport_recv);
        ("transport.datagrams", c "transport.datagrams");
        ("transport.bytes", c "transport.bytes");
        ("transport.backpressure_drops", c "transport.backpressure_drops");
        ("transport.decode_errors", c "transport.decode_errors");
        ( "transport.sys_s",
          if List.mem_assoc "transport.datagrams" traced.Outcome.counts then u.Timing.kernel_s
          else 0.0 );
        ("transport.recv_yield", ratio (c "transport.received") (c "transport.recv_attempts"));
        ("codec.encode_ns", c "codec.encode_ns");
        ("codec.decode_ns", c "codec.decode_ns");
        ("gc.alloc_words_per_delivery", ratio u.Timing.alloc_words deliveries);
        ("gc.promoted_words_per_delivery", ratio u.Timing.promoted_words deliveries);
        ("gc.minor_collections", float_of_int u.Timing.minor_gcs);
        ("gc.major_collections", float_of_int u.Timing.major_gcs);
        ("gc.minor_s", Gc_trace.minor_s gc);
        ("gc.major_s", Gc_trace.major_s gc);
        ("trace.overhead_s", wall -. (plain.Outcome.setup_s +. plain.Outcome.run_s));
        ("trace.unattributed_share", ratio (self Span.round) wall);
      ]
  in
  Printf.eprintf "%s seed %d traced: wall %.3f s (untraced %.3f s), %d spans\n%!" workload seed
    wall
    (plain.Outcome.setup_s +. plain.Outcome.run_s)
    sp.Span.opened;
  Array.iteri
    (fun i name ->
      if Span.count sp i > 0 then
        Printf.eprintf "  %-16s self %8.4f s  %5.1f%%  n=%d\n" name (self i)
          (100.0 *. self i /. wall) (Span.count sp i))
    Span.names;
  Option.iter (Span.write sp) (spans_path workload seed);
  (with_units per_layer values, plain.Outcome.obligations, failed plain)

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

let self_test () =
  let ok = ref true in
  let expect cond fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "%s %s\n%!" (if cond then "ok  " else "FAIL") s;
        if not cond then ok := false)
      fmt
  in
  let well_formed what catalogue metrics =
    expect
      (List.length metrics = List.length catalogue
      && List.for_all2
           (fun (name, unit) (name', unit', v) ->
             name = name' && unit = unit' && unit <> "" && Float.is_finite v)
           catalogue metrics)
      "%s: every metric present, finite, with its unit" what
  in
  (* smoke size: shape of both outputs *)
  List.iter
    (fun w ->
      violations := [];
      let m, attempted, _ = measure ~smoke:true ~seed:1 ~seconds:0.0 w in
      well_formed (w ^ " smoke end-to-end") end_to_end m;
      expect (!violations = [] && attempted > 0) "%s smoke: rounds reproduce, outputs correct" w;
      violations := [];
      let m, _, _ = trace ~smoke:true ~seed:1 w in
      well_formed (w ^ " smoke per-layer") per_layer m;
      expect (!violations = []) "%s smoke: traced run reproduces the untraced one" w)
    workloads;
  (* full size: attribution of the traced wall time *)
  List.iter
    (fun w ->
      violations := [];
      let m, _, _ = trace ~smoke:false ~seed:1 w in
      let _, _, share = List.find (fun (n, _, _) -> n = "trace.unattributed_share") m in
      expect (share < 0.10 && !violations = []) "%s: unattributed root self time %.1f%% < 10%%" w
        (100.0 *. share))
    [ "wan_recovery"; "udp_loopback" ];
  (* a second seed still delivers every obligation *)
  List.iter
    (fun w ->
      violations := [];
      let d = runner ~smoke:false ~seed:2 w in
      let o, _ = d.round () in
      expect
        (o.Outcome.undelivered = 0 && failed o = 0 && !violations = [])
        "%s seed 2: all %d obligations delivered" w o.Outcome.obligations)
    workloads;
  !ok

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload (wan_recovery|spine_scale|udp_loopback) --seed N --seconds S \
     --trace 0|1\n       perfbench --self-test";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--self-test" ] -> exit (if self_test () then 0 else 1)
  | _ ->
    let rec parse acc = function
      | [] -> acc
      | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) opts
    then usage ();
    let workload = get "workload" in
    if not (List.mem workload workloads) then usage ();
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let metrics, attempted, failed =
      match int "trace" with
      | 0 -> measure ~smoke:false ~seed ~seconds workload
      | 1 -> trace ~smoke:false ~seed workload
      | _ -> usage ()
    in
    if not (print_result ~attempted ~failed metrics) then exit 1

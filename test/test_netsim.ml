(* Tests for the simulated network: delivery, latency, multicast
   primitives, loss and liveness accounting. *)

module Network = Netsim.Network

let check_float = Alcotest.(check (float 1e-9))

type msg = Ping of int

let make_net ?(loss = Loss.Lossless) ?(latency = Latency.paper_default) ~topology () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:7 in
  let net =
    Network.create ~sim ~topology ~latency
      ~loss:(Loss.create loss ~rng:(Engine.Rng.split rng))
      ~rng ()
  in
  (sim, net)

let collect net node log =
  Network.register net node (fun d ->
      let (Ping payload) = d.Network.msg in
      log := (Node_id.to_int d.Network.src, payload) :: !log)

let test_unicast_delivery_and_delay () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~topology () in
  let log = ref [] in
  let arrived_at = ref (-1.0) in
  Network.register net (Node_id.of_int 1) (fun d ->
      arrived_at := Engine.Sim.now sim;
      let (Ping p) = d.Network.msg in
      log := (Node_id.to_int d.Network.src, p) :: !log);
  Network.unicast net ~cls:"test" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 9);
  Engine.Sim.run sim;
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 9) ] !log;
  check_float "intra delay 5ms" 5.0 !arrived_at

let test_inter_region_delay () =
  let topology = Topology.chain ~sizes:[ 1; 1 ] in
  let sim, net = make_net ~topology () in
  let arrived_at = ref (-1.0) in
  Network.register net (Node_id.of_int 1) (fun _ -> arrived_at := Engine.Sim.now sim);
  Network.unicast net ~cls:"test" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 0);
  Engine.Sim.run sim;
  check_float "one hop = 50 + 5" 55.0 !arrived_at

let test_unregistered_dropped_dead () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~topology () in
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 0);
  Engine.Sim.run sim;
  let stats = Network.stats net ~cls:"c" in
  Alcotest.(check int) "sent" 1 stats.Network.sent;
  Alcotest.(check int) "dead" 1 stats.Network.dropped_dead;
  Alcotest.(check int) "delivered" 0 stats.Network.delivered

let test_left_mid_flight_dropped () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~topology () in
  let log = ref [] in
  collect net (Node_id.of_int 1) log;
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 1);
  (* node 1 leaves before the packet lands (delay is 5ms) *)
  ignore
    (Engine.Sim.schedule sim ~delay:1.0 (fun () ->
         Topology.remove_node topology (Node_id.of_int 1)));
  Engine.Sim.run sim;
  Alcotest.(check (list (pair int int))) "nothing delivered" [] !log;
  Alcotest.(check int) "dead" 1 (Network.stats net ~cls:"c").Network.dropped_dead

(* handlers sit in slots indexed by node id: an emptied slot, a slot
   grown for a late joiner and an overwritten slot *)
let test_unregistered_member_dropped () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~topology () in
  let log = ref [] in
  collect net (Node_id.of_int 1) log;
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 1);
  Engine.Sim.run sim;
  Network.unregister net (Node_id.of_int 1);
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 2);
  Engine.Sim.run sim;
  Alcotest.(check bool) "still a member" true (Topology.is_member topology (Node_id.of_int 1));
  Alcotest.(check (list (pair int int))) "only the first arrives" [ (0, 1) ] !log;
  let stats = Network.stats net ~cls:"c" in
  Alcotest.(check int) "delivered" 1 stats.Network.delivered;
  Alcotest.(check int) "dead" 1 stats.Network.dropped_dead

let test_late_joiner_receives () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~topology () in
  let first = ref [] in
  collect net (Node_id.of_int 0) first;
  collect net (Node_id.of_int 1) (ref []);
  (* three nodes join after the network was built; only the last
     registers, with an id past every earlier one *)
  let region = List.hd (Topology.regions topology) in
  let joined = List.init 3 (fun _ -> Topology.add_node topology region) in
  let silent = List.nth joined 1 and late = List.nth joined 2 in
  let log = ref [] in
  collect net late log;
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:late (Ping 7);
  Network.unicast net ~cls:"c" ~src:late ~dst:(Node_id.of_int 0) (Ping 8);
  Network.unicast net ~cls:"c" ~src:late ~dst:silent (Ping 9);
  Engine.Sim.run sim;
  Alcotest.(check (list (pair int int))) "late joiner receives" [ (0, 7) ] !log;
  Alcotest.(check (list (pair int int))) "and is heard" [ (Node_id.to_int late, 8) ] !first;
  Alcotest.(check int) "unregistered joiner drops" 1
    (Network.stats net ~cls:"c").Network.dropped_dead

let test_register_replaces () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~topology () in
  let old_log = ref [] and new_log = ref [] in
  collect net (Node_id.of_int 1) old_log;
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 1);
  Engine.Sim.run sim;
  collect net (Node_id.of_int 1) new_log;
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 2);
  Engine.Sim.run sim;
  Alcotest.(check (list (pair int int))) "old handler" [ (0, 1) ] !old_log;
  Alcotest.(check (list (pair int int))) "new handler" [ (0, 2) ] !new_log

let test_bernoulli_loss_accounting () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~loss:(Loss.Bernoulli 0.5) ~topology () in
  let log = ref [] in
  collect net (Node_id.of_int 1) log;
  for i = 1 to 1000 do
    Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping i)
  done;
  Engine.Sim.run sim;
  let stats = Network.stats net ~cls:"c" in
  Alcotest.(check int) "sent" 1000 stats.Network.sent;
  Alcotest.(check int) "conservation" 1000 (stats.Network.delivered + stats.Network.dropped_loss);
  Alcotest.(check bool) "roughly half lost" true
    (stats.Network.dropped_loss > 400 && stats.Network.dropped_loss < 600)

let test_regional_multicast_scope () =
  let topology = Topology.chain ~sizes:[ 3; 3 ] in
  let sim, net = make_net ~topology () in
  let received = ref [] in
  List.iter
    (fun i ->
      Network.register net (Node_id.of_int i) (fun d ->
          ignore d.Network.msg;
          received := i :: !received))
    [ 0; 1; 2; 3; 4; 5 ];
  Network.regional_multicast net ~cls:"mc" ~src:(Node_id.of_int 0)
    ~region:(Region_id.of_int 0) (Ping 0);
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "only own region, sans source" [ 1; 2 ]
    (List.sort compare !received)

let test_regional_multicast_include_src () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~topology () in
  let received = ref [] in
  List.iter
    (fun i ->
      Network.register net (Node_id.of_int i) (fun _ -> received := i :: !received))
    [ 0; 1 ];
  Network.regional_multicast net ~cls:"mc" ~src:(Node_id.of_int 0)
    ~region:(Region_id.of_int 0) ~include_src:true (Ping 0);
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "source included" [ 0; 1 ] (List.sort compare !received)

let test_ip_multicast_reach () =
  let topology = Topology.single_region ~size:5 in
  let sim, net = make_net ~topology () in
  let received = ref [] in
  List.iter
    (fun i ->
      Network.register net (Node_id.of_int i) (fun _ -> received := i :: !received))
    [ 0; 1; 2; 3; 4 ];
  (* only even nodes are reached *)
  Network.ip_multicast net ~cls:"data" ~src:(Node_id.of_int 0)
    ~reach:(fun n -> Node_id.to_int n mod 2 = 0)
    (Ping 0);
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "exact outcome" [ 2; 4 ] (List.sort compare !received);
  let stats = Network.stats net ~cls:"data" in
  Alcotest.(check int) "sent to all but src" 4 stats.Network.sent;
  Alcotest.(check int) "unreached count as loss" 2 stats.Network.dropped_loss

let test_ip_multicast_spans_regions () =
  let topology = Topology.chain ~sizes:[ 2; 2 ] in
  let sim, net = make_net ~topology () in
  let received = ref [] in
  List.iter
    (fun i ->
      Network.register net (Node_id.of_int i) (fun _ -> received := i :: !received))
    [ 0; 1; 2; 3 ];
  Network.ip_multicast_lossy net ~cls:"data" ~src:(Node_id.of_int 0) (Ping 0);
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "both regions" [ 1; 2; 3 ] (List.sort compare !received)

let test_delivery_hook () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~topology () in
  let hook_count = ref 0 in
  Network.register net (Node_id.of_int 1) (fun _ -> ());
  Network.set_delivery_hook net (Some (fun _ -> incr hook_count));
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 0);
  Engine.Sim.run sim;
  Alcotest.(check int) "hook saw delivery" 1 !hook_count;
  Network.set_delivery_hook net None;
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 0);
  Engine.Sim.run sim;
  Alcotest.(check int) "hook removed" 1 !hook_count

let test_classes_and_reset () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_net ~topology () in
  Network.register net (Node_id.of_int 1) (fun _ -> ());
  Network.unicast net ~cls:"a" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 0);
  Network.unicast net ~cls:"b" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 0);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "classes" [ "a"; "b" ] (Network.classes net);
  Alcotest.(check int) "total sent" 2 (Network.total_sent net);
  Alcotest.(check int) "total delivered" 2 (Network.total_delivered net);
  Network.reset_stats net;
  Alcotest.(check int) "reset" 0 (Network.total_sent net)

let test_self_send () =
  let topology = Topology.single_region ~size:1 in
  let sim, net = make_net ~topology () in
  let got = ref false in
  Network.register net (Node_id.of_int 0) (fun _ -> got := true);
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 0) (Ping 0);
  Engine.Sim.run sim;
  Alcotest.(check bool) "self-delivery after a delay" true !got

let suites =
  [
    ( "netsim.network",
      [
        Alcotest.test_case "unicast delivery+delay" `Quick test_unicast_delivery_and_delay;
        Alcotest.test_case "inter-region delay" `Quick test_inter_region_delay;
        Alcotest.test_case "unregistered dropped" `Quick test_unregistered_dropped_dead;
        Alcotest.test_case "left mid-flight" `Quick test_left_mid_flight_dropped;
        Alcotest.test_case "unregistered member dropped" `Quick test_unregistered_member_dropped;
        Alcotest.test_case "late joiner receives" `Quick test_late_joiner_receives;
        Alcotest.test_case "register replaces" `Quick test_register_replaces;
        Alcotest.test_case "bernoulli accounting" `Quick test_bernoulli_loss_accounting;
        Alcotest.test_case "regional multicast scope" `Quick test_regional_multicast_scope;
        Alcotest.test_case "regional include_src" `Quick test_regional_multicast_include_src;
        Alcotest.test_case "ip multicast reach" `Quick test_ip_multicast_reach;
        Alcotest.test_case "ip multicast spans regions" `Quick test_ip_multicast_spans_regions;
        Alcotest.test_case "delivery hook" `Quick test_delivery_hook;
        Alcotest.test_case "classes and reset" `Quick test_classes_and_reset;
        Alcotest.test_case "self send" `Quick test_self_send;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Bandwidth / egress queueing                                         *)
(* ------------------------------------------------------------------ *)

let make_bw_net ~bytes_per_ms ~topology () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:7 in
  let bandwidth = { Network.bytes_per_ms; Network.packet_bytes = (fun (Ping _) -> 100) } in
  let net =
    Network.create ~sim ~topology ~latency:Latency.paper_default
      ~loss:(Loss.create Loss.Lossless ~rng:(Engine.Rng.split rng))
      ~rng ~bandwidth ()
  in
  (sim, net)

let test_bandwidth_serializes_unicasts () =
  let topology = Topology.single_region ~size:3 in
  (* 100-byte packets at 10 bytes/ms: 10 ms serialization each *)
  let sim, net = make_bw_net ~bytes_per_ms:10.0 ~topology () in
  let arrivals = ref [] in
  List.iter
    (fun i ->
      Network.register net (Node_id.of_int i) (fun _ ->
          arrivals := Engine.Sim.now sim :: !arrivals))
    [ 1; 2 ];
  (* two back-to-back unicasts from node 0: the second queues behind
     the first (10 + 10 serialization), both then fly for 5 ms *)
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping 1);
  Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 2) (Ping 2);
  Engine.Sim.run sim;
  Alcotest.(check (list (float 1e-6))) "staggered by serialization" [ 15.0; 25.0 ]
    (List.sort compare !arrivals)

let test_bandwidth_multicast_charged_once () =
  let topology = Topology.single_region ~size:5 in
  let sim, net = make_bw_net ~bytes_per_ms:10.0 ~topology () in
  let arrivals = ref [] in
  List.iter
    (fun i ->
      Network.register net (Node_id.of_int i) (fun _ ->
          arrivals := Engine.Sim.now sim :: !arrivals))
    [ 1; 2; 3; 4 ];
  Network.regional_multicast net ~cls:"mc" ~src:(Node_id.of_int 0)
    ~region:(Region_id.of_int 0) (Ping 0);
  Engine.Sim.run sim;
  (* one 10 ms transmission + 5 ms propagation for everyone *)
  List.iter (fun at -> Alcotest.(check (float 1e-6)) "single charge" 15.0 at) !arrivals;
  Alcotest.(check int) "all four got it" 4 (List.length !arrivals)

let test_bandwidth_backlog_reported () =
  let topology = Topology.single_region ~size:2 in
  let sim, net = make_bw_net ~bytes_per_ms:10.0 ~topology () in
  Network.register net (Node_id.of_int 1) (fun _ -> ());
  for i = 1 to 5 do
    Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping i)
  done;
  (* 5 x 10 ms queued at t = 0 *)
  Alcotest.(check (float 1e-6)) "50 ms backlog" 50.0
    (Network.egress_backlog net (Node_id.of_int 0));
  Engine.Sim.run sim;
  Alcotest.(check (float 1e-6)) "drained" 0.0
    (Network.egress_backlog net (Node_id.of_int 0))

let test_bandwidth_absent_means_unlimited () =
  let topology = Topology.single_region ~size:2 in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let net =
    Network.create ~sim ~topology ~latency:Latency.paper_default
      ~loss:(Loss.create Loss.Lossless ~rng:(Engine.Rng.split rng))
      ~rng ()
  in
  let arrivals = ref [] in
  Network.register net (Node_id.of_int 1) (fun _ -> arrivals := Engine.Sim.now sim :: !arrivals);
  for i = 1 to 3 do
    Network.unicast net ~cls:"c" ~src:(Node_id.of_int 0) ~dst:(Node_id.of_int 1) (Ping i)
  done;
  Engine.Sim.run sim;
  List.iter (fun at -> Alcotest.(check (float 1e-6)) "no queueing" 5.0 at) !arrivals;
  Alcotest.(check (float 1e-6)) "no backlog tracking" 0.0
    (Network.egress_backlog net (Node_id.of_int 0))

let bandwidth_suite =
  ( "netsim.bandwidth",
    [
      Alcotest.test_case "serializes unicasts" `Quick test_bandwidth_serializes_unicasts;
      Alcotest.test_case "multicast charged once" `Quick test_bandwidth_multicast_charged_once;
      Alcotest.test_case "backlog reported" `Quick test_bandwidth_backlog_reported;
      Alcotest.test_case "absent means unlimited" `Quick test_bandwidth_absent_means_unlimited;
    ] )

(* ------------------------------------------------------------------ *)
(* Batched vs per-receiver fan-out equivalence                         *)
(* ------------------------------------------------------------------ *)

(* the multicast surface shared by Network and the per-receiver
   reference model in reference_net.ml *)
module type FANOUT = sig
  type 'msg t

  val create :
    sim:Engine.Sim.t ->
    topology:Topology.t ->
    latency:Latency.t ->
    loss:Loss.t ->
    rng:Engine.Rng.t ->
    unit ->
    'msg t

  val register : 'msg t -> Node_id.t -> ('msg Network.delivery -> unit) -> unit

  val regional_multicast :
    'msg t -> cls:string -> src:Node_id.t -> region:Region_id.t -> ?include_src:bool -> 'msg -> unit

  val ip_multicast :
    'msg t -> cls:string -> src:Node_id.t -> reach:(Node_id.t -> bool) -> 'msg -> unit

  val ip_multicast_lossy : 'msg t -> cls:string -> src:Node_id.t -> 'msg -> unit

  val stats : 'msg t -> cls:string -> Network.counter
end

module Batched : FANOUT = struct
  include Network

  let create ~sim ~topology ~latency ~loss ~rng () =
    Network.create ~sim ~topology ~latency ~loss ~rng ()
end

(* The batched fan-out must be observationally identical to one event
   per receiver on a seeded run: same delivery log (order, times,
   payloads), same counters — under loss, with a non-constant latency
   model (every receiver its own delay, so groups are singletons) and
   with the paper's constant one (whole regions share a delay, so
   group order and the order within a group both show). Both runs
   draw loss and latency from identically seeded generators. *)
let fanout_run (module N : FANOUT) ~latency =
  let topology = Topology.chain ~sizes:[ 6; 5 ] in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:42 in
  let net =
    N.create ~sim ~topology ~latency
      ~loss:(Loss.create (Loss.Bernoulli 0.3) ~rng:(Engine.Rng.split rng))
      ~rng ()
  in
  let log = ref [] in
  List.iter
    (fun node ->
      N.register net node (fun d ->
          let (Ping p) = d.Network.msg in
          log :=
            ( (Engine.Sim.now sim, Node_id.to_int d.Network.src),
              (Node_id.to_int d.Network.dst, p) )
            :: !log))
    (Array.to_list (Topology.all_nodes topology));
  for round = 1 to 5 do
    ignore
      (Engine.Sim.schedule sim ~delay:(float_of_int round *. 3.0) (fun () ->
           N.regional_multicast net ~cls:"regional" ~src:(Node_id.of_int 0)
             ~region:(Region_id.of_int 0) (Ping round);
           N.ip_multicast_lossy net ~cls:"session" ~src:(Node_id.of_int 1)
             (Ping (100 + round));
           N.ip_multicast net ~cls:"reach" ~src:(Node_id.of_int 2)
             ~reach:(fun n -> Node_id.to_int n mod 2 = 0)
             (Ping (200 + round))))
  done;
  Engine.Sim.run sim;
  let stats cls =
    let c = N.stats net ~cls in
    ((c.Network.sent, c.Network.delivered), (c.Network.dropped_loss, c.Network.dropped_dead))
  in
  (List.rev !log, List.map stats [ "regional"; "session"; "reach" ])

let test_batched_fanout_equivalence () =
  List.iter
    (fun latency ->
      let log_b, stats_b = fanout_run (module Batched) ~latency in
      let log_r, stats_r = fanout_run (module Reference_net) ~latency in
      Alcotest.(check bool) "some deliveries happened" true (List.length log_b > 50);
      Alcotest.(check (list (pair (pair (float 1e-9) int) (pair int int))))
        "delivery logs identical" log_r log_b;
      Alcotest.(check (list (pair (pair int int) (pair int int))))
        "counters identical" stats_r stats_b)
    [
      Latency.create
        ~intra:(Latency.Uniform { lo = 1.0; hi = 9.0 })
        ~inter:(Latency.Constant 50.0);
      Latency.paper_default;
    ]

let batching_suite =
  ( "netsim.batching",
    [ Alcotest.test_case "batched = per-receiver" `Quick test_batched_fanout_equivalence ] )

let suites = suites @ [ bandwidth_suite; batching_suite ]

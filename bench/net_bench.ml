(* BENCH_net.json: the real-traffic numbers.

   A group of RRMP members runs over Udp_loopback — every send is a
   real datagram through a real kernel socket, every receive passes
   through the binary codec — while timers stay on the deterministic
   sim clock. The harness alternates a socket drain with a 1 ms sim
   step, so protocol time is controlled and only the datagram path is
   "live". Loss is injected at the transport (seeded, send-side), and
   the members repair it with the paper's randomized recovery, over
   the wire.

   Reported per loss rate: wall-clock message throughput (member
   deliveries per second, which counts the multicast fan-out), the
   datagram/byte totals from the transport, and the recovery latency
   distribution in sim-ms (time from loss detection to repair, as
   emitted by Events.Recovered). Alongside: the codec's encode and
   validate costs in ns/op and minor words/op — the same paths the
   alloc/codec-* gates bound, measured here at bench op counts. *)

module Member = Rrmp.Member
module Config = Rrmp.Config
module Events = Rrmp.Events
module Wire = Rrmp.Wire
module Payload = Rrmp.Payload
module Codec = Rrmp.Codec
module Network = Netsim.Network
module Udp = Net.Udp_loopback
module Transport = Net.Transport

(* ------------------------------------------------------------------ *)
(* Codec micro-benchmarks                                              *)
(* ------------------------------------------------------------------ *)

let measure_codec ~name ~what ~ops f =
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  f ops;
  let w1 = Gc.minor_words () in
  let t1 = Unix.gettimeofday () in
  let total = float_of_int ops in
  Json.Obj
    [
      ("name", Json.String name);
      ("what", Json.String what);
      ("ops", Json.Int ops);
      ("ns_per_op", Json.Float ((t1 -. t0) *. 1e9 /. total));
      ("minor_words_per_op", Json.Float (Float.max 0.0 ((w1 -. w0) /. total)));
    ]

let codec_rows ~smoke =
  let ops = if smoke then 50_000 else 1_000_000 in
  let id = Protocol.Msg_id.make ~source:(Node_id.of_int 3) ~seq:17 in
  let msg = Wire.Data (Payload.make ~size:1024 id) in
  let size = Codec.encoded_size msg in
  let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
  ignore (Codec.encode buf ~off:0 msg : int);
  let dec = Codec.create_decoder () in
  [
    measure_codec ~name:"net/codec-encode"
      ~what:"encode a 1 KiB Data frame into a preallocated buffer" ~ops (fun n ->
        for _ = 1 to n do
          ignore (Codec.encode buf ~off:0 msg : int)
        done);
    measure_codec ~name:"net/codec-decode"
      ~what:"validate a 1 KiB Data frame through a pooled decoder" ~ops (fun n ->
        for _ = 1 to n do
          match Codec.read dec buf ~off:0 ~len:size with
          | Codec.Ok_frame -> ()
          | Codec.Err _ -> assert false
        done);
    measure_codec ~name:"net/codec-decode-materialize"
      ~what:"validate + materialize the Wire.t with a copied body" ~ops:(ops / 10) (fun n ->
        for _ = 1 to n do
          match Codec.read dec buf ~off:0 ~len:size with
          | Codec.Ok_frame -> ignore (Codec.view dec ~copy:true : Wire.t)
          | Codec.Err _ -> assert false
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Loopback throughput + recovery latency                              *)
(* ------------------------------------------------------------------ *)

type recovery_stats = {
  mutable recoveries : int;
  mutable latency_sum : float;
  mutable latency_max : float;
  mutable delivered_events : int;
}

let run_loss_rate ~members:n ~messages ~max_steps ~loss =
  let topology = Topology.single_region ~size:n in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:7 in
  let net =
    Network.create ~sim ~topology ~latency:Latency.paper_default
      ~loss:(Loss.create Loss.Lossless ~rng:(Engine.Rng.split rng))
      ~rng:(Engine.Rng.split rng) ()
  in
  let transport = Udp.create ~loss ~seed:0x6265 ~nodes:(Topology.all_nodes topology) () in
  let caps = Net.Caps.udp ~transport ~clock:(Net.Clock.of_sim sim) ~topology in
  let rs = { recoveries = 0; latency_sum = 0.0; latency_max = 0.0; delivered_events = 0 } in
  let observer ~time:_ ~self:_ = function
    | Events.Delivered _ -> rs.delivered_events <- rs.delivered_events + 1
    | Events.Recovered { latency; _ } ->
      rs.recoveries <- rs.recoveries + 1;
      rs.latency_sum <- rs.latency_sum +. latency;
      rs.latency_max <- Float.max rs.latency_max latency
    | _ -> ()
  in
  let group =
    Array.map
      (fun node ->
        Member.create ~net ~config:Config.default ~rng:(Engine.Rng.split rng) ~node ~caps
          ~observer ())
      (Topology.all_nodes topology)
  in
  let delivery =
    {
      Network.src = Node_id.of_int 0;
      Network.dst = Node_id.of_int 0;
      Network.msg = Wire.Session { max_seq = 0 };
      Network.sent_at = 0.0;
      Network.cls = "net";
    }
  in
  let dispatch ~src ~dst msg =
    delivery.Network.src <- src;
    delivery.Network.dst <- dst;
    delivery.Network.msg <- msg;
    delivery.Network.sent_at <- Engine.Sim.now sim;
    Member.inject_delivery group.(Node_id.to_int dst) delivery
  in
  let sender = group.(0) in
  let all_delivered () = Array.for_all (fun m -> Member.delivered_count m >= messages) group in
  let t0 = Unix.gettimeofday () in
  let steps = ref 0 in
  let step () =
    incr steps;
    ignore (Udp.drain transport ~handle:dispatch : int);
    Engine.Sim.run ~until:(Engine.Sim.now sim +. 1.0) sim
  in
  (* one multicast per sim-ms, then session ticks until the group
     converges (or the step cap fires at a pathological loss rate) *)
  for _ = 1 to messages do
    ignore (Member.multicast sender ~size:1024 () : Protocol.Msg_id.t);
    step ()
  done;
  while (not (all_delivered ())) && !steps < max_steps do
    if !steps mod 20 = 0 then Member.send_session sender;
    step ()
  done;
  ignore (Udp.drain transport ~handle:dispatch : int);
  let wall_s = Unix.gettimeofday () -. t0 in
  let st = Udp.stats transport in
  let complete = all_delivered () in
  Udp.close transport;
  Json.Obj
    [
      ("name", Json.String (Printf.sprintf "net/throughput loss=%.2f" loss));
      ( "what",
        Json.String
          "RRMP members over UDP loopback: one 1 KiB multicast per sim-ms, recovery over \
           the wire" );
      ("members", Json.Int n);
      ("messages", Json.Int messages);
      ("loss", Json.Float loss);
      ("wall_s", Json.Float wall_s);
      ("sim_ms", Json.Float (Engine.Sim.now sim));
      ("complete", Json.Bool complete);
      ("deliveries", Json.Int rs.delivered_events);
      ( "deliveries_per_sec",
        Json.Float (float_of_int rs.delivered_events /. Float.max wall_s 1e-9) );
      ("datagrams_sent", Json.Int st.Transport.datagrams_sent);
      ("datagrams_received", Json.Int st.Transport.datagrams_received);
      ( "datagrams_per_sec",
        Json.Float (float_of_int st.Transport.datagrams_sent /. Float.max wall_s 1e-9)
      );
      ("bytes_sent", Json.Int st.Transport.bytes_sent);
      ("dropped_loss", Json.Int st.Transport.dropped_loss);
      ("dropped_backpressure", Json.Int st.Transport.dropped_backpressure);
      ("decode_errors", Json.Int st.Transport.decode_errors);
      ("recoveries", Json.Int rs.recoveries);
      ( "recovery_latency_mean_ms",
        Json.Float
          (if rs.recoveries = 0 then 0.0
           else rs.latency_sum /. float_of_int rs.recoveries) );
      ("recovery_latency_max_ms", Json.Float rs.latency_max);
    ]

let run ~smoke () =
  let members = if smoke then 6 else 16 in
  let messages = if smoke then 40 else 400 in
  let max_steps = if smoke then 5_000 else 60_000 in
  let rates = if smoke then [ 0.0; 0.05 ] else [ 0.0; 0.01; 0.05 ] in
  let throughput =
    List.map
      (fun loss ->
        let row = run_loss_rate ~members ~messages ~max_steps ~loss in
        Format.printf "  %s@." (Json.to_string row);
        row)
      rates
  in
  throughput @ codec_rows ~smoke

(* udp_loopback: the real-traffic path. 16 Members exchange datagrams
   over Net.Caps.udp, Rrmp.Codec and nonblocking loopback sockets,
   with 2% injected transport loss. The sim clock is stepped 1 ms per
   socket drain (as bench/net_bench.ml does), so protocol timers stay
   deterministic; the sender multicasts one message per step, with the
   seed choosing 64 B or 1 KiB for each, then sends a session message
   every 20 steps until the horizon. *)

module Member = Rrmp.Member
module Network = Netsim.Network
module Udp = Net.Udp_loopback

let members = 16
let loss = 0.02
let session_every = 20
let tail_ms = 1000.0
let lap_steps = 250  (* the run is timed in laps of this many 1 ms steps *)

let config = { Rrmp.Config.default with Rrmp.Config.long_term_lifetime = Some 400.0 }

type inputs = {
  seed : int;
  sizes : int array;  (* payload bytes per message *)
  loss_seed : int;
}

let prepare ?(smoke = false) ~seed () =
  let messages = if smoke then 200 else 6000 in
  let rng = Engine.Rng.create ~seed in
  let sizes = Array.init messages (fun _ -> if Engine.Rng.bool rng then 64 else 1024) in
  { seed; sizes; loss_seed = Engine.Rng.int rng 0x3fffffff }

(* codec cost of the traffic actually sent: a reservoir of sent
   messages, re-encoded and re-decoded after the traced round *)
module Sample = struct
  let capacity = 2048

  type t = { msgs : Rrmp.Wire.t array; rng : Engine.Rng.t; mutable seen : int }

  let create () =
    { msgs = Array.make capacity (Rrmp.Wire.Session { max_seq = 0 }); rng = Engine.Rng.create ~seed:1; seen = 0 }

  let add t msg =
    let k = t.seen in
    t.seen <- k + 1;
    if k < capacity then t.msgs.(k) <- msg
    else begin
      let j = Engine.Rng.int t.rng (k + 1) in
      if j < capacity then t.msgs.(j) <- msg
    end

  (* mean ns per frame to encode, and to validate + materialize (what
     Udp_loopback.drain does per datagram) *)
  let codec_ns t =
    let n = min t.seen capacity in
    if n = 0 then (0.0, 0.0)
    else begin
      let msgs = Array.sub t.msgs 0 n in
      let offs = Array.make (n + 1) 0 in
      Array.iteri (fun i m -> offs.(i + 1) <- offs.(i) + Rrmp.Codec.encoded_size m) msgs;
      let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout offs.(n) in
      let dec = Rrmp.Codec.create_decoder () in
      let time f =
        let reps = ref 0 and t0 = Timing.now () in
        while Timing.now () -. t0 < 0.05 do
          f ();
          incr reps
        done;
        (Timing.now () -. t0) *. 1e9 /. float_of_int (!reps * n)
      in
      let encode () =
        Array.iteri (fun i m -> ignore (Rrmp.Codec.encode buf ~off:offs.(i) m : int)) msgs
      in
      let enc = time encode in
      let dec_ns =
        time (fun () ->
            for i = 0 to n - 1 do
              match Rrmp.Codec.read dec buf ~off:offs.(i) ~len:(offs.(i + 1) - offs.(i)) with
              | Rrmp.Codec.Ok_frame -> ignore (Rrmp.Codec.view dec ~copy:true : Rrmp.Wire.t)
              | Rrmp.Codec.Err _ -> failwith "codec sample does not decode"
            done)
      in
      (enc, dec_ns)
    end
end

(* One round; [spans] traces it (drain -> transport.recv, its handler
   -> rrmp.recv, sends -> transport.send, each per-step Sim.run ->
   rrmp.timer, multicasts and session sends -> rrmp.multicast). *)
let run ?spans ?(depth_hist = [||]) ?(tick = ignore) inputs =
  let enter name = match spans with Some sp -> Span.enter sp name | None -> () in
  let leave () = match spans with Some sp -> Span.leave sp | None -> () in
  let messages = Array.length inputs.sizes in
  let obs = Obs.create () in
  let sample = Sample.create () in
  enter Span.round;
  let t0 = Timing.now () in
  enter Span.setup;
  let topology = Topology.single_region ~size:members in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:inputs.seed in
  let net =
    Network.create ~sim ~topology ~latency:Latency.paper_default
      ~loss:(Loss.create Loss.Lossless ~rng:(Engine.Rng.split rng))
      ~rng:(Engine.Rng.split rng) ()
  in
  let nodes = Topology.all_nodes topology in
  let transport = Udp.create ~loss ~seed:inputs.loss_seed ~nodes () in
  let caps = Net.Caps.udp ~transport ~clock:(Net.Clock.of_sim sim) ~topology in
  let caps =
    match spans with
    | Some sp -> Span.wrap_caps sp Span.transport_send ~on_send:(Sample.add sample) caps
    | None -> caps
  in
  let observer = Obs.observer obs in
  let group =
    Array.map
      (fun node -> Member.create ~net ~config ~rng:(Engine.Rng.split rng) ~node ~caps ~observer ())
      nodes
  in
  leave ();
  let t1 = Timing.now () in
  let p0 = Timing.probe () in
  let laps =
    Timing.laps ~capacity:(((messages + int_of_float tail_ms) / lap_steps) + 2) ~start:t1
  in
  let delivery =
    {
      Network.src = nodes.(0);
      dst = nodes.(0);
      msg = Rrmp.Wire.Session { max_seq = 0 };
      sent_at = 0.0;
      cls = "net";
    }
  in
  let repairs = ref 0 in
  let handle ~src ~dst msg =
    enter Span.rrmp_recv;
    (match msg with
     | Rrmp.Wire.Repair _ | Rrmp.Wire.Regional_repair _ -> incr repairs
     | _ -> ());
    delivery.Network.src <- src;
    delivery.Network.dst <- dst;
    delivery.Network.msg <- msg;
    delivery.Network.sent_at <- Engine.Sim.now sim;
    Member.inject_delivery group.(Node_id.to_int dst) delivery;
    leave ()
  in
  let drains = ref 0 in
  let drain () =
    incr drains;
    enter Span.transport_recv;
    ignore (Udp.drain transport ~handle : int);
    leave ()
  in
  let nsteps = ref 0 in
  let step () =
    incr nsteps;
    if Array.length depth_hist > 0 then begin
      let d = min (Array.length depth_hist - 1) (Engine.Sim.pending sim) in
      depth_hist.(d) <- depth_hist.(d) + 1
    end;
    if !nsteps land 255 = 0 then tick ();
    if !nsteps mod lap_steps = 0 then Timing.lap laps;
    drain ();
    enter Span.rrmp_timer;
    Engine.Sim.run ~until:(Engine.Sim.now sim +. 1.0) sim;
    leave ()
  in
  let sender = group.(0) in
  Array.iter
    (fun size ->
      enter Span.rrmp_multicast;
      ignore (Member.multicast sender ~size () : Protocol.Msg_id.t);
      leave ();
      step ())
    inputs.sizes;
  let horizon = Engine.Sim.now sim +. tail_ms in
  let steps = ref 0 in
  while Engine.Sim.now sim < horizon do
    if !steps mod session_every = 0 then begin
      enter Span.rrmp_multicast;
      Member.send_session sender;
      leave ()
    end;
    incr steps;
    step ()
  done;
  drain ();
  Timing.lap laps;
  let t2 = laps.Timing.last in
  let p1 = Timing.probe () in
  leave ();
  let st = Udp.stats transport in
  Udp.close transport;
  let enc_ns, dec_ns =
    match spans with Some _ -> Sample.codec_ns sample | None -> (0.0, 0.0)
  in
  let deliveries, undelivered, occupancy_sum, peak = Outcome.of_members group ~messages in
  ( {
      Outcome.setup_s = t1 -. t0;
      run_s = t2 -. t1;
      part_run_s = Timing.lap_times laps;
      deliveries;
      obligations = (members - 1) * messages;
      undelivered;
      recoveries = obs.Obs.recoveries;
      latency_sum = obs.Obs.latency_sum;
      occupancy_sum;
      members;
      events = Engine.Sim.events_executed sim;
      scheduled = Engine.Sim.events_scheduled sim;
      usage = Timing.delta p0 p1;
      counts =
        [
          ("transport.datagrams", float_of_int st.Net.Transport.datagrams_sent);
          ("transport.bytes", float_of_int st.Net.Transport.bytes_sent);
          ("transport.backpressure_drops", float_of_int st.Net.Transport.dropped_backpressure);
          ("transport.decode_errors", float_of_int st.Net.Transport.decode_errors);
          ("transport.received", float_of_int st.Net.Transport.datagrams_received);
          (* each drain ends every socket with one empty poll *)
          ( "transport.recv_attempts",
            float_of_int (st.Net.Transport.datagrams_received + (!drains * members)) );
          ("repairs.delivered", float_of_int !repairs);
          ("codec.encode_ns", enc_ns);
          ("codec.decode_ns", dec_ns);
          ("buffer.peak", float_of_int peak);
          ("lt.msg_regions", float_of_int messages);
        ];
    },
    obs )

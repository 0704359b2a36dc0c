(* wan_recovery: the classic path. Rrmp.Group runs one Member per node
   over Netsim.Network on a 13-region, three-level tree (100-200
   members a region). The sender multicasts one 1 KiB message every
   10 ms; each receiver misses a message with p = 0.03, and 5% of the
   messages miss one whole non-root region, which must then recover
   remotely, usually through a search of the parent region for a
   long-term bufferer. A round is [sessions] independent sessions
   drawn from the seed. *)

module Member = Rrmp.Member
module Network = Netsim.Network

let fanout = 3
let regions = 13  (* 1 + 3 + 9: fanout 3, three levels *)
let gap_ms = 10.0
let payload = 1024
let receiver_loss = 0.03
let region_loss = 0.05
let sessions = 6
let lap_ms = 250.0  (* a session's run is timed in laps of this much simulated time *)

let config =
  {
    Rrmp.Config.default with
    Rrmp.Config.session_interval = Some 50.0;
    long_term_lifetime = Some 1000.0;
    max_recovery_tries = Some 100;
  }

let latency = Latency.paper_default

type session = {
  seed : int;
  sizes : int array;
  reach : Bytes.t array;  (* per message, per node: '\001' when reached *)
  horizon : float;
}

type inputs = session array

let prepare_session ~smoke rng =
  let messages, lo, hi = if smoke then (20, 8, 16) else (100, 100, 200) in
  (* evenly spaced sizes in [lo, hi] dealt to regions in seeded order,
     so every session has the same member total *)
  let sizes = Array.init regions (fun r -> lo + ((hi - lo) * r / (regions - 1))) in
  Engine.Rng.shuffle rng sizes;
  let base = Array.make regions 0 in
  for r = 1 to regions - 1 do
    base.(r) <- base.(r - 1) + sizes.(r - 1)
  done;
  let n = base.(regions - 1) + sizes.(regions - 1) in
  (* exactly [region_loss] of the messages miss one whole non-root
     region *)
  let missed_region = Array.make messages 0 in
  let order = Array.init messages Fun.id in
  Engine.Rng.shuffle rng order;
  for k = 0 to int_of_float (Float.round (region_loss *. float_of_int messages)) - 1 do
    missed_region.(order.(k)) <- 1 + Engine.Rng.int rng (regions - 1)
  done;
  let reach =
    Array.init messages (fun k ->
        let b = Bytes.make n '\001' in
        for i = 1 to n - 1 do
          if Engine.Rng.bernoulli rng ~p:receiver_loss then Bytes.set b i '\000'
        done;
        let r = missed_region.(k) in
        if r > 0 then Bytes.fill b base.(r) sizes.(r) '\000';
        b)
  in
  {
    seed = Engine.Rng.int rng 0x3fffffff;
    sizes;
    reach;
    horizon = (float_of_int messages *. gap_ms) +. 3000.0;
  }

let prepare ?(smoke = false) ~seed () =
  let rng = Engine.Rng.create ~seed in
  Array.init sessions (fun _ -> prepare_session ~smoke rng)

(* node ids are dense in creation order, region by region, so a node's
   id indexes the reach bytes directly *)
let topology s =
  let parents =
    Array.init regions (fun r ->
        if r = 0 then None else Some (Region_id.of_int ((r - 1) / fanout)))
  in
  let topo = Topology.create ~parents in
  Array.iteri
    (fun r size ->
      for _ = 1 to size do
        ignore (Topology.add_node topo (Region_id.of_int r) : Node_id.t)
      done)
    s.sizes;
  topo

let reaches reach node = Bytes.unsafe_get reach (Node_id.to_int node) = '\001'

let classes =
  [ "data"; "session"; "local-req"; "remote-req"; "repair"; "regional-repair"; "search"; "have" ]

let outcome s ~setup_s ~run_s ~parts ~usage ~sim ~net ~members ~obs ~extra =
  let messages = Array.length s.reach in
  let delivered cls = float_of_int (Network.stats net ~cls).Network.delivered in
  let deliveries, undelivered, occupancy_sum, peak = Outcome.of_members members ~messages in
  {
    Outcome.setup_s;
    run_s;
    part_run_s = parts;
    deliveries;
    obligations = (Array.length members - 1) * messages;
    undelivered;
    recoveries = obs.Obs.recoveries;
    latency_sum = obs.Obs.latency_sum;
    occupancy_sum;
    members = Array.length members;
    events = Engine.Sim.events_executed sim;
    scheduled = Engine.Sim.events_scheduled sim;
    usage;
    counts =
      [
        ("netsim.packets", float_of_int (Network.total_delivered net));
        ("repairs.delivered", delivered "repair" +. delivered "regional-repair");
        ("buffer.peak", float_of_int peak);
        ("lt.msg_regions", float_of_int (messages * regions));
      ]
      @ List.map (fun cls -> ("netsim.packets." ^ cls, delivered cls)) classes
      @ extra;
  }

let schedule_sends s sim send =
  Array.iteri
    (fun k reach ->
      ignore
        (Engine.Sim.schedule_at sim ~at:(float_of_int k *. gap_ms) (fun () -> send reach)
          : Engine.Sim.handle))
    s.reach

(* One untraced session through the public entry point, Rrmp.Group. *)
let run_session s =
  let obs = Obs.create () in
  let t0 = Timing.now () in
  let topology = topology s in
  let g =
    Rrmp.Group.create ~seed:s.seed ~config ~latency ~observer:(Obs.observer obs) ~topology ()
  in
  let t1 = Timing.now () in
  let p0 = Timing.probe () in
  let sim = Rrmp.Group.sim g in
  schedule_sends s sim (fun reach ->
      ignore (Rrmp.Group.multicast_reaching g ~size:payload ~reach:(reaches reach) ()
        : Protocol.Msg_id.t));
  (* Sim.run ~until executes the same events in the same order whether
     the horizon is reached in one call or in several *)
  let nlaps = int_of_float (Float.ceil (s.horizon /. lap_ms)) in
  let laps = Timing.laps ~capacity:nlaps ~start:t1 in
  for i = 1 to nlaps do
    Rrmp.Group.run ~until:(Float.min s.horizon (float_of_int i *. lap_ms)) g;
    Timing.lap laps
  done;
  let t2 = laps.Timing.last in
  let p1 = Timing.probe () in
  ( outcome s ~setup_s:(t1 -. t0) ~run_s:(t2 -. t1) ~parts:(Timing.lap_times laps)
      ~usage:(Timing.delta p0 p1) ~sim
      ~net:(Rrmp.Group.net g)
      ~members:(Array.of_list (Rrmp.Group.members g))
      ~obs ~extra:[],
    obs )

(* The traced session. It is built by hand in Group.create's RNG split
   order (loss, network, then members in node order), so the wrapped
   capabilities leave the simulation identical to [run_session]'s.
   Sim events are driven one at a time. An event that delivers a
   packet is split at its first delivery-hook call into
   engine.dispatch and rrmp.recv; each later hook call in the same
   (batched) event starts the next rrmp.recv, so each receiver is
   charged the time up to the next receiver's hook. An event with no
   delivery is rrmp.timer. *)
let run_session_traced s sp ~depth_hist ~tick =
  let obs = Obs.create () in
  let sends = ref 0 in
  let t0 = Timing.now () in
  Span.enter_at sp Span.setup t0;
  let topology = topology s in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:s.seed in
  let loss = Loss.create Loss.Lossless ~rng:(Engine.Rng.split rng) in
  let net = Network.create ~sim ~topology ~latency ~loss ~rng:(Engine.Rng.split rng) () in
  let caps =
    Span.wrap_caps sp Span.netsim_send ~on_send:(fun _ -> incr sends) (Member.netsim_caps net)
  in
  let observer = Obs.observer obs in
  let members =
    Array.map
      (fun node ->
        Member.create ~net ~config ~rng:(Engine.Rng.split rng) ~node ~caps ~observer ())
      (Topology.all_nodes topology)
  in
  let t1 = Timing.now () in
  Span.leave_at sp t1;
  let sender = members.(0) in
  schedule_sends s sim (fun reach ->
      Span.enter sp Span.rrmp_multicast;
      ignore (Member.multicast_reaching sender ~size:payload ~reach:(reaches reach) ()
        : Protocol.Msg_id.t);
      Span.leave sp);
  (* every event opens as rrmp.timer; its first delivery renames that
     span engine.dispatch and opens the first rrmp.recv *)
  Network.set_delivery_hook net
    (Some
       (fun _ ->
         if Span.top_name sp = Span.rrmp_timer then Span.rename_top sp Span.engine_dispatch;
         Span.switch sp Span.rrmp_recv));
  let last = Array.length depth_hist - 1 in
  let continue = ref true in
  while !continue do
    let before = Engine.Sim.events_executed sim in
    let depth = min last (Engine.Sim.pending sim) in
    Span.enter sp Span.rrmp_timer;
    Engine.Sim.run ~until:s.horizon ~max_events:(before + 1) sim;
    Span.leave sp;
    continue := Engine.Sim.events_executed sim > before;
    if !continue then begin
      depth_hist.(depth) <- depth_hist.(depth) + 1;
      if before land 0xffff = 0 then tick ()
    end
  done;
  Network.set_delivery_hook net None;
  let t2 = Timing.now () in
  ( outcome s ~setup_s:(t1 -. t0) ~run_s:(t2 -. t1) ~parts:[| t2 -. t1 |] ~usage:Timing.zero ~sim
      ~net ~members ~obs
      ~extra:[ ("netsim.sends", float_of_int !sends) ],
    obs )

(* a round: every session in turn, outcomes merged and observations
   pooled in session order *)
let fold_sessions inputs f =
  let pooled = Obs.create () in
  let acc = ref None in
  Array.iter
    (fun s ->
      let o, obs = f s in
      Obs.absorb pooled obs;
      acc := Some (match !acc with None -> o | Some a -> Outcome.merge a o))
    inputs;
  let o = Option.get !acc in
  ( { o with Outcome.recoveries = pooled.Obs.recoveries; latency_sum = pooled.Obs.latency_sum },
    pooled )

let run inputs = fold_sessions inputs run_session

let run_traced inputs sp ~depth_hist ~tick =
  Span.enter sp Span.round;
  let r = fold_sessions inputs (fun s -> run_session_traced s sp ~depth_hist ~tick) in
  Span.leave sp;
  r

(* spine_scale: the scale path. Rrmp.Sharded with one shard (one event
   spine: one Sim, one Member_soa arena with a barrier-swept deadline
   ring, and Netsim.Fabric for cross-region parcels) over 256 regions
   of 256 members. 32 messages go out in bursts of 4 every 25 ms; the
   seed decides which receivers each one reaches (5% independent
   loss). *)

let quantum = 10.0
let lifetime = 400.0
let burst = 4
let gap_ms = 25.0
let loss = 0.05

let config =
  {
    Rrmp.Config.default with
    Rrmp.Config.long_term_lifetime = Some lifetime;
    session_interval = Some 50.0;
    max_recovery_tries = Some 40;
    deadline_quantum = quantum;
  }

type inputs = {
  seed : int;
  regions : int;
  per_region : int;
  reach : Bytes.t array;  (* per message, per (region, member) slot *)
  horizon : float;
}

let prepare ?(smoke = false) ~seed () =
  let regions, per_region, messages = if smoke then (16, 16, 8) else (256, 256, 32) in
  let rng = Engine.Rng.create ~seed in
  let reach =
    Array.init messages (fun _ ->
        Bytes.init (regions * per_region) (fun _ ->
            if Engine.Rng.bernoulli rng ~p:loss then '\000' else '\001'))
  in
  let bursts = (messages + burst - 1) / burst in
  {
    seed;
    regions;
    per_region;
    reach;
    horizon = (float_of_int bursts *. gap_ms) +. lifetime +. 2000.0;
  }

(* [spans] wraps Sharded.create, each Sharded.multicast and
   Sharded.run; [observe] attaches a per-shard observer (the untimed
   pass that yields recovery percentiles). *)
let run ?spans ?observe inputs =
  let enter name = match spans with Some sp -> Span.enter sp name | None -> () in
  let leave () = match spans with Some sp -> Span.leave sp | None -> () in
  let messages = Array.length inputs.reach in
  let sizes = Array.make inputs.regions inputs.per_region in
  (* a star of regions under the sender's *)
  let parents = Array.make inputs.regions 0 in
  parents.(0) <- -1;
  let observer =
    match observe with
    | None -> None
    | Some o ->
      let f = Obs.observer o in
      Some (fun (_ : int) -> Some f)
  in
  enter Span.round;
  let t0 = Timing.now () in
  enter Span.spine_create;
  let t =
    Rrmp.Sharded.create ~seed:inputs.seed ~config ~sizes ~parents ~shards:1 ~cap:messages
      ?observer ()
  in
  leave ();
  let t1 = Timing.now () in
  let sim = Rrmp.Sharded.sender_sim t in
  let next = ref 0 in
  let per_region = inputs.per_region in
  let send () =
    let reach = inputs.reach.(!next) in
    incr next;
    enter Span.spine_multicast;
    Rrmp.Sharded.multicast t ~reach:(fun ~region ~member ->
        Bytes.unsafe_get reach ((region * per_region) + member) = '\001');
    leave ()
  in
  for b = 0 to ((messages + burst - 1) / burst) - 1 do
    let count = min burst (messages - (b * burst)) in
    ignore
      (Engine.Sim.schedule_at sim ~at:(float_of_int b *. gap_ms) (fun () ->
           for _ = 1 to count do
             send ()
           done)
        : Engine.Sim.handle)
  done;
  let p0 = Timing.probe () in
  enter Span.spine_run;
  Rrmp.Sharded.run t ~until:inputs.horizon;
  leave ();
  let p1 = Timing.probe () in
  let t2 = Timing.now () in
  leave ();
  let size = Rrmp.Sharded.size t in
  let lt = ref 0 in
  for seq = 0 to messages - 1 do
    lt := !lt + Rrmp.Sharded.long_term_bufferers t ~seq
  done;
  let deliveries = Rrmp.Sharded.delivered_total t - messages in
  let obligations = (size - 1) * messages in
  {
    Outcome.setup_s = t1 -. t0;
    run_s = t2 -. t1;
    part_run_s = [| t2 -. t1 |];
    deliveries;
    obligations;
    undelivered = obligations - deliveries;
    recoveries = Rrmp.Sharded.recovered_total t;
    latency_sum = Rrmp.Sharded.recovery_latency_sum t;
    occupancy_sum = Rrmp.Sharded.occupancy_msg_ms_total t;
    members = size;
    events = Rrmp.Sharded.sim_events t;
    scheduled = Rrmp.Sharded.sim_schedules t;
    usage = Timing.delta p0 p1;
    counts =
      [
        ("fabric.parcels", float_of_int (Rrmp.Sharded.cross_region_parcels t));
        ("spine.touches", float_of_int (Rrmp.Sharded.touches_total t));
        ( "spine.discarded",
          float_of_int (Tracing.Metrics.counter (Rrmp.Sharded.shard_metrics t 0) "rrmp.discarded")
        );
        ("buffer.peak", float_of_int (Rrmp.Sharded.peak_buffered t));
        ("lt.promotions", float_of_int !lt);
        ("lt.msg_regions", float_of_int (messages * inputs.regions));
      ];
  }

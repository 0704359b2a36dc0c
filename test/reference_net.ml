(* Reference model for Netsim.Network's multicast fan-out: one
   simulator event per receiver, as the fan-out worked before Network
   grouped receivers by sampled delay. test_netsim.ml requires Network
   to produce the same delivery log and the same counters as this model
   on a seeded run. The rules it keeps:
   - each receiver draws its loss, then its latency, in membership
     order, at send time, from the same Loss.t and Rng.t;
   - each surviving receiver gets its own event, scheduled in that
     order, so same-instant deliveries keep membership order;
   - a receiver that has left the topology, or has no handler, when
     its event fires counts as dropped_dead;
   - the traffic-class counter is found when the packet fires.
   There is no bandwidth model: a send leaves at once. The interface
   mirrors the part of Network the equivalence test drives. *)

module Network = Netsim.Network

type counter = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_dead : int;
}

type 'msg t = {
  sim : Engine.Sim.t;
  topology : Topology.t;
  latency : Latency.t;
  loss : Loss.t;
  rng : Engine.Rng.t;
  handlers : (int, 'msg Network.delivery -> unit) Hashtbl.t;
  counters : (string, counter) Hashtbl.t;
}

let create ~sim ~topology ~latency ~loss ~rng () =
  { sim; topology; latency; loss; rng; handlers = Hashtbl.create 16; counters = Hashtbl.create 4 }

let register t node handler = Hashtbl.replace t.handlers (Node_id.to_int node) handler

let counter t cls =
  match Hashtbl.find_opt t.counters cls with
  | Some c -> c
  | None ->
    let c = { sent = 0; delivered = 0; dropped_loss = 0; dropped_dead = 0 } in
    Hashtbl.add t.counters cls c;
    c

let stats t ~cls =
  let c = counter t cls in
  {
    Network.sent = c.sent;
    delivered = c.delivered;
    dropped_loss = c.dropped_loss;
    dropped_dead = c.dropped_dead;
  }

let delay t ~src ~dst =
  match (Topology.region_of t.topology src, Topology.region_of t.topology dst) with
  | Some ra, Some rb ->
    let hops = Topology.hops t.topology ra rb in
    if hops = 0 then Latency.intra t.latency t.rng else Latency.inter t.latency ~hops t.rng
  | _ -> Latency.intra t.latency t.rng

let deliver t (d : _ Network.delivery) =
  let c = counter t d.Network.cls in
  match Hashtbl.find_opt t.handlers (Node_id.to_int d.Network.dst) with
  | Some handler when Topology.is_member t.topology d.Network.dst ->
    c.delivered <- c.delivered + 1;
    handler d
  | Some _ | None -> c.dropped_dead <- c.dropped_dead + 1

(* one receiver: [lost] draws (or decides) its loss before its latency
   is drawn *)
let send_one t ~cls ~src ~dst ~lost msg =
  let c = counter t cls in
  c.sent <- c.sent + 1;
  if lost () then c.dropped_loss <- c.dropped_loss + 1
  else begin
    let sent_at = Engine.Sim.now t.sim in
    let delay = delay t ~src ~dst in
    let d = { Network.src; dst; msg; sent_at; cls } in
    ignore (Engine.Sim.schedule t.sim ~delay (fun () -> deliver t d))
  end

let regional_multicast t ~cls ~src ~region ?(include_src = false) msg =
  Array.iter
    (fun dst ->
      if include_src || not (Node_id.equal dst src) then
        send_one t ~cls ~src ~dst ~lost:(fun () -> Loss.drop t.loss ~src ~dst) msg)
    (Topology.members t.topology region)

let ip_multicast t ~cls ~src ~reach msg =
  Array.iter
    (fun dst ->
      if not (Node_id.equal dst src) then
        send_one t ~cls ~src ~dst ~lost:(fun () -> not (reach dst)) msg)
    (Topology.all_nodes t.topology)

let ip_multicast_lossy t ~cls ~src msg =
  Array.iter
    (fun dst ->
      if not (Node_id.equal dst src) then
        send_one t ~cls ~src ~dst ~lost:(fun () -> Loss.drop t.loss ~src ~dst) msg)
    (Topology.all_nodes t.topology)

module Msg_id = Protocol.Msg_id
module Recv_log = Protocol.Recv_log
module Network = Netsim.Network
module Sim = Engine.Sim
module Buffer = Rrmp.Buffer
module Payload = Rrmp.Payload

type wire =
  | Data of Payload.t
  | Digest of Recv_log.digest
  | Solicit of Msg_id.t list
  | Retransmit of Payload.t

let cls = function
  | Data _ -> "data"
  | Digest _ -> "digest"
  | Solicit _ -> "solicit"
  | Retransmit _ -> "retransmit"

type member = {
  node : Node_id.t;
  recv : Recv_log.t;
  buffer : Buffer.t;
  rng : Engine.Rng.t;
  mutable ticker : Engine.Timer.Periodic.t option;
}

type t = {
  sim : Sim.t;
  net : wire Network.t;
  topology : Topology.t;
  buffer_for : float;
  fanout : int;
  members : member Node_id.Table.t;
  sender : Node_id.t;
  mutable next_seq : int;
}

let sim t = t.sim

let member_of t node = Node_id.Table.find t.members node

let send t ~src ~dst msg = Network.unicast t.net ~cls:(cls msg) ~src ~dst msg

(* fixed-time buffering: the entry's retention deadline, never touched,
   discards it [buffer_for] ms after arrival *)
let store t m payload =
  if not (Buffer.mem m.buffer (Payload.id payload)) then
    Buffer.arm m.buffer
      (Buffer.insert m.buffer ~phase:Buffer.Short_term payload)
      ~timeout:t.buffer_for

let handle_data t m payload =
  match Recv_log.note_data m.recv (Payload.id payload) with
  | Recv_log.Duplicate -> ()
  | Recv_log.Fresh _ ->
    (* losses are repaired by anti-entropy; no explicit NACKs *)
    store t m payload

(* a digest arrived: pull whatever the gossiper has that we lack *)
let handle_digest t m digest ~src =
  let wanted =
    List.concat_map
      (fun (source, (horizon, missing)) ->
        List.filter_map
          (fun seq ->
            let id = Msg_id.make ~source ~seq in
            if (not (List.mem seq missing)) && not (Recv_log.received m.recv id) then
              Some id
            else None)
          (List.init (horizon + 1) Fun.id))
      digest
  in
  if wanted <> [] then send t ~src:m.node ~dst:src (Solicit wanted)

let handle_solicit t m ids ~src =
  List.iter
    (fun id ->
      match Buffer.find m.buffer id with
      | e -> send t ~src:m.node ~dst:src (Retransmit (Buffer.payload e))
      | exception Not_found -> ()  (* already discarded: the solicitor will pull elsewhere *))
    ids

let handle_retransmit t m payload =
  if Recv_log.note_repaired m.recv (Payload.id payload) then store t m payload

let handle_delivery t m (delivery : wire Network.delivery) =
  let src = delivery.Network.src in
  match delivery.Network.msg with
  | Data payload -> handle_data t m payload
  | Digest digest -> handle_digest t m digest ~src
  | Solicit ids -> handle_solicit t m ids ~src
  | Retransmit payload -> handle_retransmit t m payload

let gossip_round t m =
  let peers =
    match Topology.region_of t.topology m.node with
    | None -> [||]
    | Some _ ->
      Topology.all_nodes t.topology |> Array.to_seq
      |> Seq.filter (fun n -> not (Node_id.equal n m.node))
      |> Array.of_seq
  in
  if Array.length peers > 0 then begin
    let digest = Recv_log.digest m.recv in
    if digest <> [] then
      for _ = 1 to t.fanout do
        send t ~src:m.node ~dst:(Engine.Rng.pick m.rng peers) (Digest digest)
      done
  end

let create ?(seed = 1) ?(latency = Latency.paper_default) ?(loss = Loss.Lossless)
    ?(gossip_interval = 10.0) ?(fanout = 1) ?(buffer_for = 200.0) ~topology () =
  let sim = Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let loss = Loss.create loss ~rng:(Engine.Rng.split rng) in
  let net = Network.create ~sim ~topology ~latency ~loss ~rng:(Engine.Rng.split rng) () in
  let nodes = Topology.all_nodes topology in
  if Array.length nodes = 0 then invalid_arg "Pbcast.create: empty topology";
  let t =
    {
      sim;
      net;
      topology;
      buffer_for;
      fanout;
      members = Node_id.Table.create (Array.length nodes);
      sender = nodes.(0);
      next_seq = 0;
    }
  in
  Array.iter
    (fun node ->
      let m =
        {
          node;
          recv = Recv_log.create ();
          buffer = Buffer.create ~sim;
          rng = Engine.Rng.split rng;
          ticker = None;
        }
      in
      Node_id.Table.add t.members node m;
      Buffer.set_on_expire m.buffer (Buffer.remove m.buffer);
      Network.register net node (handle_delivery t m);
      m.ticker <-
        Some (Engine.Timer.Periodic.create sim ~interval:gossip_interval (fun () ->
                  gossip_round t m)))
    nodes;
  t

let fresh_payload t ~size =
  let id = Msg_id.make ~source:t.sender ~seq:t.next_seq in
  t.next_seq <- t.next_seq + 1;
  Payload.make ?size id

let own_bookkeeping t payload =
  let m = member_of t t.sender in
  ignore (Recv_log.note_data m.recv (Payload.id payload));
  store t m payload

let multicast t ?size () =
  let payload = fresh_payload t ~size in
  own_bookkeeping t payload;
  Network.ip_multicast_lossy t.net ~cls:"data" ~src:t.sender (Data payload);
  Payload.id payload

let multicast_reaching t ?size ~reach () =
  let payload = fresh_payload t ~size in
  own_bookkeeping t payload;
  Network.ip_multicast t.net ~cls:"data" ~src:t.sender ~reach (Data payload);
  Payload.id payload

let run ?until ?max_events t = Sim.run ?until ?max_events t.sim

let stop_gossip t =
  (* stop tickers in node order so teardown is deterministic *)
  let members =
    Node_id.Table.fold (fun node m acc -> (node, m) :: acc) t.members []
    |> List.sort (fun (a, _) (b, _) -> Node_id.compare a b)
  in
  List.iter
    (fun (_, m) ->
      match m.ticker with
      | Some ticker ->
        Engine.Timer.Periodic.stop ticker;
        m.ticker <- None
      | None -> ())
    members

let members t = Array.to_list (Topology.all_nodes t.topology)

let count_received t id =
  List.fold_left
    (fun acc node -> if Recv_log.received (member_of t node).recv id then acc + 1 else acc)
    0 (members t)

let received_by_all t id = count_received t id = Topology.node_count t.topology

let buffer_of t node = (member_of t node).buffer

let control_packets t =
  List.fold_left
    (fun acc cls ->
      if cls = "data" then acc else acc + (Network.stats t.net ~cls).Network.sent)
    0
    (Network.classes t.net)

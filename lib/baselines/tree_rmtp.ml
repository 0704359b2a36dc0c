module Msg_id = Protocol.Msg_id
module Recv_log = Protocol.Recv_log
module Network = Netsim.Network
module Sim = Engine.Sim
module Buffer = Rrmp.Buffer
module Payload = Rrmp.Payload

type wire =
  | Data of Payload.t
  | Session of { max_seq : int }
  | Nack of Msg_id.t
  | Repair of Payload.t

let cls = function
  | Data _ -> "data"
  | Session _ -> "session"
  | Nack _ -> "nack"
  | Repair _ -> "repair"

type pending = { mutable timer : Sim.handle option; mutable tries : int }

type member = {
  node : Node_id.t;
  server : Node_id.t;  (* this member's repair server (itself if server) *)
  upstream : Node_id.t option;  (* the server's parent-region server *)
  recv : Recv_log.t;
  buffer : Buffer.t;
  pending : pending Msg_id.Table.t;  (* outstanding NACKs *)
  waiting : Node_id.t list ref Msg_id.Table.t;  (* server: requesters to relay to *)
}

type t = {
  sim : Sim.t;
  net : wire Network.t;
  topology : Topology.t;
  nack_timeout : float;
  members : member Node_id.Table.t;
  sender : Node_id.t;
  mutable next_seq : int;
  mutable session_ticker : Engine.Timer.Periodic.t option;
  session_interval : float option;
}

let net t = t.net

let sim t = t.sim

let repair_server t region =
  let members = Topology.members t.topology region in
  if Array.length members = 0 then invalid_arg "Tree_rmtp.repair_server: empty region";
  members.(0)

let is_server t node =
  match Topology.region_of t.topology node with
  | None -> false
  | Some region -> Node_id.equal (repair_server t region) node

let member_of t node = Node_id.Table.find t.members node

let send t ~src ~dst msg = Network.unicast t.net ~cls:(cls msg) ~src ~dst msg

(* NACK the member's repair server (or, for a server, its upstream
   server), retrying on a timer until the repair lands *)
let rec nack_round t m id =
  let target = if Node_id.equal m.node m.server then m.upstream else Some m.server in
  match target with
  | None -> ()  (* the root server missing a message cannot recover *)
  | Some server ->
    let p =
      match Msg_id.Table.find_opt m.pending id with
      | Some p -> p
      | None ->
        let p = { timer = None; tries = 0 } in
        Msg_id.Table.add m.pending id p;
        p
    in
    p.tries <- p.tries + 1;
    send t ~src:m.node ~dst:server (Nack id);
    p.timer <- Some (Sim.schedule t.sim ~delay:t.nack_timeout (fun () -> nack_round t m id))

let cancel_nack m id =
  match Msg_id.Table.find_opt m.pending id with
  | None -> ()
  | Some p ->
    Option.iter Sim.cancel p.timer;
    Msg_id.Table.remove m.pending id

let start_recovery t m id = if not (Msg_id.Table.mem m.pending id) then nack_round t m id

(* a server relays a just-obtained message to the receivers (and
   downstream servers) recorded as waiting for it *)
let serve_waiters t m payload =
  let id = Payload.id payload in
  match Msg_id.Table.find_opt m.waiting id with
  | None -> ()
  | Some requesters ->
    List.iter (fun dst -> send t ~src:m.node ~dst (Repair payload)) !requesters;
    Msg_id.Table.remove m.waiting id

let obtain t m payload =
  let id = Payload.id payload in
  cancel_nack m id;
  (* only the repair server buffers — for the whole session *)
  if Node_id.equal m.node m.server then
    ignore (Buffer.insert m.buffer ~phase:Buffer.Long_term payload : Buffer.entry);
  serve_waiters t m payload

let handle_data t m payload =
  match Recv_log.note_data m.recv (Payload.id payload) with
  | Recv_log.Duplicate -> ()
  | Recv_log.Fresh losses ->
    obtain t m payload;
    List.iter (start_recovery t m) losses

let handle_session t m ~source ~max_seq =
  List.iter (start_recovery t m) (Recv_log.note_session m.recv ~source ~max_seq)

let handle_nack t m id ~src =
  match Buffer.find m.buffer id with
  | e -> send t ~src:m.node ~dst:src (Repair (Buffer.payload e))
  | exception Not_found ->
    (* record the requester; make sure the server itself is chasing it *)
    let requesters =
      match Msg_id.Table.find_opt m.waiting id with
      | Some r -> r
      | None ->
        let r = ref [] in
        Msg_id.Table.add m.waiting id r;
        r
    in
    if not (List.exists (Node_id.equal src) !requesters) then requesters := src :: !requesters;
    if Recv_log.received m.recv id then
      (* a non-buffering path is impossible: servers buffer everything
         they receive — but a plain member NACKed by mistake would land
         here; serve from the log is impossible, so just wait *)
      ()
    else begin
      List.iter (start_recovery t m) (Recv_log.note_session m.recv ~source:(Msg_id.source id) ~max_seq:(Msg_id.seq id))
    end

let handle_repair t m payload =
  if Recv_log.note_repaired m.recv (Payload.id payload) then obtain t m payload
  else serve_waiters t m payload

let handle_delivery t m (delivery : wire Network.delivery) =
  let src = delivery.Network.src in
  match delivery.Network.msg with
  | Data payload -> handle_data t m payload
  | Session { max_seq } -> handle_session t m ~source:src ~max_seq
  | Nack id -> handle_nack t m id ~src
  | Repair payload -> handle_repair t m payload

let wire_bytes = function
  | Data p | Repair p -> 32 + Payload.size p
  | Session _ | Nack _ -> 64

let create ?(seed = 1) ?(latency = Latency.paper_default) ?(loss = Loss.Lossless)
    ?bandwidth ?nack_timeout ?session_interval ~topology () =
  let sim = Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let loss = Loss.create loss ~rng:(Engine.Rng.split rng) in
  let bandwidth =
    Option.map
      (fun bytes_per_ms -> { Network.bytes_per_ms; Network.packet_bytes = wire_bytes })
      bandwidth
  in
  let net =
    Network.create ~sim ~topology ~latency ~loss ~rng:(Engine.Rng.split rng) ?bandwidth ()
  in
  let nodes = Topology.all_nodes topology in
  if Array.length nodes = 0 then invalid_arg "Tree_rmtp.create: empty topology";
  let nack_timeout =
    match nack_timeout with Some v -> v | None -> Latency.intra_rtt latency
  in
  let t =
    {
      sim;
      net;
      topology;
      nack_timeout;
      members = Node_id.Table.create (Array.length nodes);
      sender = nodes.(0);
      next_seq = 0;
      session_ticker = None;
      session_interval;
    }
  in
  Array.iter
    (fun node ->
      let region = Option.get (Topology.region_of topology node) in
      let server = (Topology.members topology region).(0) in
      let upstream =
        match Topology.parent topology region with
        | None -> None
        | Some parent -> Some (Topology.members topology parent).(0)
      in
      let m =
        {
          node;
          server;
          upstream;
          recv = Recv_log.create ();
          buffer = Buffer.create ~sim;
          pending = Msg_id.Table.create 8;
          waiting = Msg_id.Table.create 8;
        }
      in
      Node_id.Table.add t.members node m;
      Network.register net node (handle_delivery t m))
    nodes;
  t

let send_session t =
  if t.next_seq > 0 then
    Network.ip_multicast_lossy t.net ~cls:"session" ~src:t.sender
      (Session { max_seq = t.next_seq - 1 })

let ensure_session_ticker t =
  match (t.session_ticker, t.session_interval) with
  | Some _, _ | None, None -> ()
  | None, Some interval ->
    t.session_ticker <-
      Some (Engine.Timer.Periodic.create t.sim ~interval (fun () -> send_session t))

let fresh_payload t ~size =
  let id = Msg_id.make ~source:t.sender ~seq:t.next_seq in
  t.next_seq <- t.next_seq + 1;
  ensure_session_ticker t;
  Payload.make ?size id

let own_bookkeeping t payload =
  let m = member_of t t.sender in
  ignore (Recv_log.note_data m.recv (Payload.id payload));
  obtain t m payload

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

let members t =
  Array.to_list (Topology.all_nodes t.topology)

let count_received t id =
  List.fold_left
    (fun acc node ->
      if Recv_log.received (member_of t node).recv id then acc + 1 else acc)
    0 (members t)

let received_by_all t id = count_received t id = Topology.node_count t.topology

let buffer_of t node = (member_of t node).buffer

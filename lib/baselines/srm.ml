module Msg_id = Protocol.Msg_id
module Recv_log = Protocol.Recv_log
module Network = Netsim.Network
module Sim = Engine.Sim
module Buffer = Rrmp.Buffer
module Payload = Rrmp.Payload

type wire =
  | Data of Payload.t
  | Session of { max_seq : int }
  | Request of Msg_id.t  (* session-wide NACK multicast *)
  | Repair of Payload.t  (* session-wide repair multicast *)

let cls = function
  | Data _ -> "data"
  | Session _ -> "session"
  | Request _ -> "srm-request"
  | Repair _ -> "srm-repair"

type request_state = {
  mutable request_timer : Sim.handle option;
  mutable interval : float;  (* backoff-doubled slot width *)
  detected_at : float;
}

type member = {
  node : Node_id.t;
  recv : Recv_log.t;
  buffer : Buffer.t;
  rng : Engine.Rng.t;
  requests : request_state Msg_id.Table.t;  (* losses being chased *)
  repairs : Sim.handle Msg_id.Table.t;  (* repair multicasts scheduled *)
}

type t = {
  sim : Sim.t;
  net : wire Network.t;
  topology : Topology.t;
  latency : Latency.t;
  c1 : float;
  c2 : float;
  r1 : float;
  r2 : float;
  members : member Node_id.Table.t;
  sender : Node_id.t;
  mutable next_seq : int;
  mutable session_ticker : Engine.Timer.Periodic.t option;
  session_interval : float option;
  latencies : Stats.Summary.t;  (* recovery latencies, group-wide *)
}

let sim t = t.sim

let member_of t node = Node_id.Table.find t.members node

(* estimated one-way distance between two nodes from the latency model *)
let distance t a b =
  match (Topology.region_of t.topology a, Topology.region_of t.topology b) with
  | Some ra, Some rb ->
    let hops = Topology.hops t.topology ra rb in
    if hops = 0 then Latency.intra_rtt t.latency /. 2.0
    else Latency.inter_rtt t.latency ~hops /. 2.0
  | _ -> Latency.intra_rtt t.latency /. 2.0

let multicast_wire t ~src msg =
  Network.ip_multicast_lossy t.net ~cls:(cls msg) ~src msg

(* --- request path --------------------------------------------------- *)

(* schedule (or re-schedule after suppression/backoff) the request
   multicast for a missing message *)
let rec arm_request t m id state =
  let d = distance t m.node (Msg_id.source id) in
  let delay = (t.c1 *. d) +. Engine.Rng.float m.rng (t.c2 *. d *. state.interval) in
  let delay = Float.max delay 0.1 in
  state.request_timer <-
    Some
      (Sim.schedule t.sim ~delay (fun () ->
           state.request_timer <- None;
           multicast_wire t ~src:m.node (Request id);
           (* keep chasing with doubled slots until the repair lands *)
           state.interval <- state.interval *. 2.0;
           arm_request t m id state))

let start_request t m id =
  if not (Msg_id.Table.mem m.requests id) then begin
    let state =
      { request_timer = None; interval = 1.0; detected_at = Sim.now t.sim }
    in
    Msg_id.Table.add m.requests id state;
    arm_request t m id state
  end

(* hearing someone else's request for data we also miss: suppress our
   pending request and back off (classic SRM suppression) *)
let suppress_request t m id =
  match Msg_id.Table.find_opt m.requests id with
  | None -> ()
  | Some state ->
    (match state.request_timer with
     | Some handle ->
       Sim.cancel handle;
       state.request_timer <- None
     | None -> ());
    state.interval <- state.interval *. 2.0;
    arm_request t m id state

(* --- repair path ---------------------------------------------------- *)

let schedule_repair t m ~requester payload =
  let id = Payload.id payload in
  if not (Msg_id.Table.mem m.repairs id) then begin
    let d = distance t m.node requester in
    let delay = (t.r1 *. d) +. Engine.Rng.float m.rng (t.r2 *. d) in
    let delay = Float.max delay 0.1 in
    let handle =
      Sim.schedule t.sim ~delay (fun () ->
          Msg_id.Table.remove m.repairs id;
          multicast_wire t ~src:m.node (Repair payload))
    in
    Msg_id.Table.add m.repairs id handle
  end

let suppress_repair m id =
  match Msg_id.Table.find_opt m.repairs id with
  | None -> ()
  | Some handle ->
    Sim.cancel handle;
    Msg_id.Table.remove m.repairs id

(* --- receiving ------------------------------------------------------ *)

let obtain t m payload =
  let id = Payload.id payload in
  (match Msg_id.Table.find_opt m.requests id with
   | Some state ->
     Option.iter Sim.cancel state.request_timer;
     Msg_id.Table.remove m.requests id;
     Stats.Summary.add t.latencies (Sim.now t.sim -. state.detected_at)
   | None -> ());
  (* ALF-style: everything stays available for retransmission *)
  ignore (Buffer.insert m.buffer ~phase:Buffer.Long_term payload : Buffer.entry)

let handle_data t m payload =
  match Recv_log.note_data m.recv (Payload.id payload) with
  | Recv_log.Duplicate -> ()
  | Recv_log.Fresh losses ->
    obtain t m payload;
    List.iter (start_request t m) losses

let handle_session t m ~source ~max_seq =
  List.iter (start_request t m) (Recv_log.note_session m.recv ~source ~max_seq)

let handle_request t m id ~src =
  if Node_id.equal src m.node then ()
  else begin
    match Buffer.find m.buffer id with
    | e -> schedule_repair t m ~requester:src (Buffer.payload e)
    | exception Not_found ->
      (* we miss it too: the request both reveals the message's
         existence and suppresses our own pending request *)
      List.iter (start_request t m)
        (Recv_log.note_session m.recv ~source:(Msg_id.source id) ~max_seq:(Msg_id.seq id));
      suppress_request t m id
  end

let handle_repair t m payload =
  let id = Payload.id payload in
  suppress_repair m id;
  if Recv_log.note_repaired m.recv id then obtain t m payload

let handle_delivery t m (delivery : wire Network.delivery) =
  let src = delivery.Network.src in
  match delivery.Network.msg with
  | Data payload -> handle_data t m payload
  | Session { max_seq } -> handle_session t m ~source:src ~max_seq
  | Request id -> handle_request t m id ~src
  | Repair payload -> handle_repair t m payload

(* --- construction and sending --------------------------------------- *)

let create ?(seed = 1) ?(latency = Latency.paper_default) ?(loss = Loss.Lossless)
    ?(c1 = 1.0) ?(c2 = 1.0) ?(r1 = 1.0) ?(r2 = 1.0) ?session_interval ~topology () =
  let sim = Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let loss = Loss.create loss ~rng:(Engine.Rng.split rng) in
  let net = Network.create ~sim ~topology ~latency ~loss ~rng:(Engine.Rng.split rng) () in
  let nodes = Topology.all_nodes topology in
  if Array.length nodes = 0 then invalid_arg "Srm.create: empty topology";
  let t =
    {
      sim;
      net;
      topology;
      latency;
      c1;
      c2;
      r1;
      r2;
      members = Node_id.Table.create (Array.length nodes);
      sender = nodes.(0);
      next_seq = 0;
      session_ticker = None;
      session_interval;
      latencies = Stats.Summary.create ();
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
          requests = Msg_id.Table.create 8;
          repairs = Msg_id.Table.create 8;
        }
      in
      Node_id.Table.add t.members node m;
      Network.register net node (handle_delivery t m))
    nodes;
  t

let send_session t =
  if t.next_seq > 0 then
    multicast_wire t ~src:t.sender (Session { max_seq = t.next_seq - 1 })

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

let members t = Array.to_list (Topology.all_nodes t.topology)

let count_received t id =
  List.fold_left
    (fun acc node -> if Recv_log.received (member_of t node).recv id then acc + 1 else acc)
    0 (members t)

let received_by_all t id = count_received t id = Topology.node_count t.topology

let buffer_of t node = (member_of t node).buffer

let request_multicasts t = (Network.stats t.net ~cls:"srm-request").Network.sent

let repair_multicasts t = (Network.stats t.net ~cls:"srm-repair").Network.sent

let mean_recovery_latency t = Stats.Summary.mean t.latencies

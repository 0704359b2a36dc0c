module Msg_id = Protocol.Msg_id
module Recv_log = Protocol.Recv_log
module Network = Netsim.Network
module View = Membership.View
module Sim = Engine.Sim
module Rng = Engine.Rng
module Timer = Engine.Timer
module Metrics = Tracing.Metrics

(* An insertion-ordered node set: the waiting/search origin lists are
   appended to on every probe and consulted on every repair, so dedup
   must not rescan the list. Iteration order (newest first) matches
   the plain-list behavior it replaces. *)
module Origins = struct
  type t = { mutable items : Node_id.t list; seen : unit Node_id.Table.t }

  let create () = { items = []; seen = Node_id.Table.create 4 }

  let is_empty t = t.items = []

  (* [true] if the node was new *)
  let add t node =
    if Node_id.Table.mem t.seen node then false
    else begin
      Node_id.Table.add t.seen node ();
      t.items <- node :: t.items;
      true
    end

  let iter t f = List.iter f t.items

  let clear t =
    t.items <- [];
    Node_id.Table.reset t.seen
end

type recovery = {
  detected_at : float;
  mutable local_timer : Sim.handle option;
  mutable remote_timer : Sim.handle option;
  mutable local_tries : int;
  mutable remote_tries : int;
  mutable last_probe_at : float;  (* when the latest local probe left *)
}

type search = {
  mutable search_timer : Sim.handle option;
  origins : Origins.t;  (* downstream receivers awaiting the repair *)
  mutable search_tries : int;
}

(* The member's I/O capabilities: everything it needs from the outside
   world is a clock read plus four send primitives. The default
   instantiation (netsim_caps) delegates straight to the simulated
   network; lib/net's UDP harness substitutes real-socket closures, so
   the identical protocol logic runs on sim time or wall time — the
   first slice of the sans-io refactor. The closures are built once at
   creation and fully applied at each call site, so the indirection
   allocates nothing. *)
type caps = {
  cap_now : unit -> float;
  cap_unicast : cls:string -> src:Node_id.t -> dst:Node_id.t -> Wire.t -> unit;
  cap_regional : cls:string -> src:Node_id.t -> region:Region_id.t -> Wire.t -> unit;
  cap_multicast : cls:string -> src:Node_id.t -> reach:(Node_id.t -> bool) -> Wire.t -> unit;
  cap_multicast_lossy : cls:string -> src:Node_id.t -> Wire.t -> unit;
}

type t = {
  net : Wire.t Network.t;
  sim : Sim.t;
  caps : caps;
  config : Config.t;
  rng : Rng.t;
  node : Node_id.t;
  view : View.t;
  recv : Recv_log.t;
  buffer : Buffer.t;
  observer : Events.observer option;
  observing : bool;  (* [observer <> None]: gates event construction *)
  recoveries : recovery Msg_id.Table.t;
  pending_remote : Origins.t Msg_id.Table.t;
      (* origins recorded while we miss the message ourselves *)
  searches : search Msg_id.Table.t;
  have_announced : unit Msg_id.Table.t;
  known_bufferer : Node_id.t Msg_id.Table.t;
      (* who announced "I have the message" last, per id *)
  pending_regional : Sim.handle Msg_id.Table.t;  (* backoff-delayed regional sends *)
  peer_digests : Recv_log.indexed Node_id.Table.t;
      (* Stability: last history per peer, indexed for O(log) probes *)
  mutable history_ticker : Timer.Periodic.t option;
  mutable next_seq : int;
  mutable delivered : int;
  mutable alive : bool;
  mutable session_ticker : Timer.Periodic.t option;
  mutable failure_detector : Membership.Gossip_fd.t option;
  mutable rtt_estimate : float;  (* EWMA from request/repair exchanges *)
  (* pre-resolved metric handles (null sinks when no registry is
     attached): hot-path bumps never hash a counter name *)
  mh_delivered : Metrics.handle;
  mh_touches : Metrics.handle;
  mh_discarded : Metrics.handle;
}

let node t = t.node

let view t = t.view

let config t = t.config

let refresh_view t =
  View.refresh t.view;
  match t.failure_detector with
  | None -> ()
  | Some fd -> Membership.Gossip_fd.set_peers fd (View.local_members t.view)

let netsim_caps net =
  {
    cap_now = (fun () -> Sim.now (Network.sim net));
    cap_unicast = (fun ~cls ~src ~dst msg -> Network.unicast net ~cls ~src ~dst msg);
    cap_regional =
      (fun ~cls ~src ~region msg -> Network.regional_multicast net ~cls ~src ~region msg);
    cap_multicast = (fun ~cls ~src ~reach msg -> Network.ip_multicast net ~cls ~src ~reach msg);
    cap_multicast_lossy = (fun ~cls ~src msg -> Network.ip_multicast_lossy net ~cls ~src msg);
  }

let now t = t.caps.cap_now ()

let emit t event =
  match t.observer with
  | None -> ()
  | Some f -> f ~time:(now t) ~self:t.node event

let send t ~dst msg = t.caps.cap_unicast ~cls:(Wire.cls msg) ~src:t.node ~dst msg

let regional t msg =
  t.caps.cap_regional ~cls:(Wire.cls msg) ~src:t.node ~region:(View.region t.view) msg

(* ------------------------------------------------------------------ *)
(* Timer estimates                                                     *)
(* ------------------------------------------------------------------ *)

let local_timeout t =
  Float.max t.config.Config.min_timer (t.config.Config.rtt_multiplier *. t.rtt_estimate)

(* the idle threshold actually in force: fixed, or idle_rounds x the
   member's learned RTT *)
let idle_threshold t =
  match t.config.Config.idle_rounds with
  | None -> t.config.Config.idle_threshold
  | Some rounds -> rounds *. t.rtt_estimate

(* fold a request->repair RTT sample into the estimate; samples far
   above the current estimate come from remote or regional repairs and
   are discarded *)
let note_rtt_sample t sample =
  if sample > 0.0 && sample < 10.0 *. t.rtt_estimate then
    t.rtt_estimate <- (0.75 *. t.rtt_estimate) +. (0.25 *. sample)

let remote_timeout t =
  Float.max t.config.Config.min_timer
    (t.config.Config.rtt_multiplier *. Latency.inter_rtt (Network.latency t.net) ~hops:1)

(* ------------------------------------------------------------------ *)
(* Feedback: requests keep a buffered message alive                    *)
(* ------------------------------------------------------------------ *)

(* a request for a buffered message pushes its retention deadline back
   when that deadline is feedback-driven: the idle threshold of a
   Two_phase short-term entry, or the lifetime of a long-term one. A
   Fixed_time period or a Stability hold stays put. Allocation-free,
   since [Buffer.touch] defers the re-arm. *)
let touch_entry t e =
  match Buffer.phase e with
  | Buffer.Long_term -> Buffer.touch t.buffer e
  | Buffer.Short_term -> (
    match t.config.Config.buffering with
    | Config.Two_phase -> Buffer.touch t.buffer e
    | Config.Fixed_time _ | Config.Stability _ | Config.Buffer_all -> ())

let touch t e =
  t.mh_touches := !(t.mh_touches) + 1;
  touch_entry t e

(* [find]-with-exception rather than an option: no [Some] box *)
let touch_feedback t id =
  t.mh_touches := !(t.mh_touches) + 1;
  match Buffer.find t.buffer id with
  | e -> touch_entry t e
  | exception Not_found -> ()

let discard t e ~phase =
  let id = Payload.id (Buffer.payload e) in
  let duration = if t.observing then now t -. Buffer.stored_at e else 0.0 in
  Buffer.remove t.buffer e;
  t.mh_discarded := !(t.mh_discarded) + 1;
  if t.observing then emit t (Events.Discarded { id; phase; buffered_for = duration })

(* every entry that becomes long-term (idle promotion, either handoff
   branch, forced state) comes through here, so its eventual discard
   under [long_term_lifetime] is armed however it got the role *)
let arm_lifetime t e =
  match t.config.Config.long_term_lifetime with
  | None -> ()
  | Some lifetime -> Buffer.arm t.buffer e ~timeout:lifetime

let promote t e =
  Buffer.promote t.buffer e;
  if t.observing then emit t (Events.Promoted_long_term (Payload.id (Buffer.payload e)));
  arm_lifetime t e

(* the idle threshold elapsed: randomized long-term buffering decision
   (Section 3.2) *)
let become_idle t e =
  let id = Payload.id (Buffer.payload e) in
  if t.observing then
    emit t (Events.Became_idle { id; buffered_for = now t -. Buffer.stored_at e });
  let n = View.local_size t.view in
  let c = t.config.Config.expected_bufferers in
  let keeps =
    match t.config.Config.selection with
    | Config.Randomized -> Long_term.decide t.rng ~c ~n
    | Config.Hashed -> Long_term.hashed_decide ~node:t.node ~id ~c ~n
  in
  if keeps then promote t e else discard t e ~phase:Buffer.Short_term

(* an entry's one retention deadline passed. Short-term, that is the
   idle threshold under Two_phase and the policy's discard under the
   baselines; long-term, it is the lifetime. *)
let expire t e =
  match Buffer.phase e with
  | Buffer.Long_term -> discard t e ~phase:Buffer.Long_term
  | Buffer.Short_term -> (
    match t.config.Config.buffering with
    | Config.Two_phase -> become_idle t e
    | Config.Fixed_time _ | Config.Stability _ | Config.Buffer_all ->
      discard t e ~phase:Buffer.Short_term)

(* Stability policy: a short-term message may be discarded
   [hold_after_stable] after every region member is known (through
   history exchange) to have received it; an armed entry is already
   on its way out *)
let check_stability t e =
  match t.config.Config.buffering with
  | Config.Stability { hold_after_stable; _ } ->
    if Buffer.phase e = Buffer.Short_term && not (Buffer.armed e) then begin
      let id = Payload.id (Buffer.payload e) in
      let peer_has node =
        match Node_id.Table.find_opt t.peer_digests node with
        | None -> false
        | Some digest -> Recv_log.indexed_has digest id
      in
      if Array.for_all peer_has (View.local_members t.view) then
        Buffer.arm t.buffer e ~timeout:hold_after_stable
    end
  | Config.Two_phase | Config.Fixed_time _ | Config.Buffer_all -> ()

(* start the retention clock appropriate to the configured policy when
   a message enters the buffer *)
let start_retention t e =
  match t.config.Config.buffering with
  | Config.Two_phase -> Buffer.arm t.buffer e ~timeout:(idle_threshold t)
  | Config.Fixed_time period -> Buffer.arm t.buffer e ~timeout:period
  | Config.Stability _ -> check_stability t e
  | Config.Buffer_all -> ()

(* ------------------------------------------------------------------ *)
(* Error recovery (Section 2.2)                                        *)
(* ------------------------------------------------------------------ *)

(* [recoveries], [pending_remote] and [searches] are empty for most
   deliveries: a length guard spares those the hash *)
let cancel_recovery t id =
  if Msg_id.Table.length t.recoveries <> 0 then
    match Msg_id.Table.find_opt t.recoveries id with
    | None -> ()
    | Some r ->
      Option.iter Sim.cancel r.local_timer;
      Option.iter Sim.cancel r.remote_timer;
      if r.local_tries > 0 then note_rtt_sample t (now t -. r.last_probe_at);
      Msg_id.Table.remove t.recoveries id;
      if t.observing then
        emit t
          (Events.Recovered
             { id; latency = now t -. r.detected_at; local_tries = r.local_tries })

let tries_exhausted t tries =
  match t.config.Config.max_recovery_tries with
  | None -> false
  | Some m -> tries >= m

(* one round of the local recovery phase: probe a random neighbour and
   arm the retry timer *)
let rec local_round t id r =
  if not (tries_exhausted t r.local_tries) then begin
    (match View.random_local t.view t.rng with
     | None -> ()  (* alone in the region: only remote recovery can help *)
     | Some q ->
       r.local_tries <- r.local_tries + 1;
       r.last_probe_at <- now t;
       send t ~dst:q (Wire.Local_request id));
    r.local_timer <-
      Some (Sim.schedule t.sim ~delay:(local_timeout t) (fun () -> local_round t id r))
  end

(* one round of the remote recovery phase: with probability lambda/n ask
   a random parent-region member; the timer is armed regardless of
   whether a request was actually sent (Section 2.2) *)
let rec remote_round t id r =
  if Array.length (View.parent_members t.view) > 0 && not (tries_exhausted t r.remote_tries)
  then begin
    let n = View.local_size t.view in
    let p = Float.min 1.0 (t.config.Config.lambda /. float_of_int n) in
    r.remote_tries <- r.remote_tries + 1;
    if Rng.bernoulli t.rng ~p then begin
      match View.random_parent t.view t.rng with
      | None -> ()
      | Some remote -> send t ~dst:remote (Wire.Remote_request { id; origin = t.node })
    end;
    r.remote_timer <-
      Some (Sim.schedule t.sim ~delay:(remote_timeout t) (fun () -> remote_round t id r))
  end

let start_recovery t id =
  if not (Msg_id.Table.mem t.recoveries id) && not (Recv_log.received t.recv id) then begin
    if t.observing then emit t (Events.Loss_detected id);
    let r =
      {
        detected_at = now t;
        local_timer = None;
        remote_timer = None;
        local_tries = 0;
        remote_tries = 0;
        last_probe_at = now t;
      }
    in
    Msg_id.Table.add t.recoveries id r;
    local_round t id r;
    remote_round t id r
  end

(* learning that [id] exists (from a request about it) can reveal a loss
   we hadn't detected yet *)
let note_existence t id =
  let losses = Recv_log.note_session t.recv ~source:(Msg_id.source id) ~max_seq:(Msg_id.seq id) in
  List.iter (start_recovery t) losses

(* ------------------------------------------------------------------ *)
(* Search for bufferers (Section 3.3)                                  *)
(* ------------------------------------------------------------------ *)

let cancel_search t id =
  match Msg_id.Table.find_opt t.searches id with
  | None -> ()
  | Some s ->
    Option.iter Sim.cancel s.search_timer;
    Msg_id.Table.remove t.searches id

(* forward one probe per waiting origin, then arm the retry timer.
   The first probe goes to a member known to have announced the
   message; retries probe uniformly at random (and forget a known
   bufferer that failed to answer). *)
let rec search_round t id s =
  if not (Origins.is_empty s.origins) then
    if Array.length (View.local_members t.view) = 0 then begin
      (* nobody to search: the origins' own retries must find another
         way in *)
      Origins.clear s.origins;
      s.search_timer <- None;
      Msg_id.Table.remove t.searches id
    end
    else if tries_exhausted t s.search_tries then begin
      Origins.clear s.origins;
      s.search_timer <- None;
      Msg_id.Table.remove t.searches id
    end
    else begin
      let random_or_hashed () =
        match t.config.Config.selection with
        | Config.Randomized -> View.random_local t.view t.rng
        | Config.Hashed ->
          (* Section 3.4: with deterministic selection the bufferers are
             computable — probe them directly, round-robin over tries *)
          let candidates =
            Long_term.hashed_candidates ~members:(View.local_members t.view) ~id
              ~c:t.config.Config.expected_bufferers ~n:(View.local_size t.view)
          in
          if Array.length candidates = 0 then View.random_local t.view t.rng
          else Some candidates.(s.search_tries mod Array.length candidates)
      in
      let target =
        match Msg_id.Table.find_opt t.known_bufferer id with
        | Some b when s.search_tries = 0 && not (Node_id.equal b t.node) -> Some b
        | Some _ ->
          Msg_id.Table.remove t.known_bufferer id;
          random_or_hashed ()
        | None -> random_or_hashed ()
      in
      (match target with
       | None -> ()
       | Some q ->
         s.search_tries <- s.search_tries + 1;
         Origins.iter s.origins (fun origin -> send t ~dst:q (Wire.Search { id; origin })));
      s.search_timer <-
        Some (Sim.schedule t.sim ~delay:(local_timeout t) (fun () -> search_round t id s))
    end

let start_search t id ~origin =
  match Msg_id.Table.find_opt t.searches id with
  | Some s ->
    if Origins.add s.origins origin then begin
      (* probe immediately for the newcomer; the shared timer keeps
         retrying for everyone *)
      match View.random_local t.view t.rng with
      | None -> ()
      | Some q -> send t ~dst:q (Wire.Search { id; origin })
    end
  | None ->
    if t.observing then emit t (Events.Search_started id);
    let s = { search_timer = None; origins = Origins.create (); search_tries = 0 } in
    ignore (Origins.add s.origins origin);
    Msg_id.Table.add t.searches id s;
    search_round t id s

(* [e] is buffered here and was asked for on behalf of [origin];
   [ack] is the searcher that forwarded the probe (if any): it gets a
   direct "I have the message" so its search terminates even when the
   region-wide announcement happened before it joined *)
let serve_from_buffer t e ~origin ?ack ~announce () =
  let payload = Buffer.payload e in
  let id = Payload.id payload in
  touch t e;
  send t ~dst:origin (Wire.Repair payload);
  if t.observing then emit t (Events.Search_satisfied { id; origin });
  if announce then begin
    if not (Msg_id.Table.mem t.have_announced id) then begin
      Msg_id.Table.add t.have_announced id ();
      regional t (Wire.Have id)
    end;
    match ack with
    | Some searcher -> send t ~dst:searcher (Wire.Have id)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Receiving the message body                                          *)
(* ------------------------------------------------------------------ *)

let relay_to_waiters t payload =
  let id = Payload.id payload in
  (* downstream origins recorded while we missed the message *)
  if Msg_id.Table.length t.pending_remote <> 0 then
    (match Msg_id.Table.find_opt t.pending_remote id with
     | None -> ()
     | Some waiting ->
       let repair = Wire.Repair payload in
       Origins.iter waiting (fun origin -> send t ~dst:origin repair);
       Msg_id.Table.remove t.pending_remote id);
  (* origins of a search we were running: we can serve them directly *)
  if Msg_id.Table.length t.searches <> 0 then
    match Msg_id.Table.find_opt t.searches id with
    | None -> ()
    | Some s ->
      let repair = Wire.Repair payload in
      Origins.iter s.origins (fun origin -> send t ~dst:origin repair);
      Origins.clear s.origins;
      cancel_search t id

let schedule_regional_repair t payload =
  let id = Payload.id payload in
  match t.config.Config.regional_send with
  | Config.Immediate -> regional t (Wire.Regional_repair payload)
  | Config.Backoff { max_delay } ->
    if not (Msg_id.Table.mem t.pending_regional id) then begin
      let delay = Rng.float t.rng max_delay in
      let handle =
        Sim.schedule t.sim ~delay (fun () ->
            Msg_id.Table.remove t.pending_regional id;
            regional t (Wire.Regional_repair payload))
      in
      Msg_id.Table.add t.pending_regional id handle
    end

(* populated only under the Backoff policy: the length guard keeps the
   Immediate-mode repair path free of the Msg_id hash *)
let suppress_regional t id =
  if Msg_id.Table.length t.pending_regional <> 0 then
    match Msg_id.Table.find_opt t.pending_regional id with
    | None -> ()
    | Some handle ->
      Sim.cancel handle;
      Msg_id.Table.remove t.pending_regional id

(* first delivery of the message body to this member *)
let accept t payload ~via =
  let id = Payload.id payload in
  cancel_recovery t id;
  t.delivered <- t.delivered + 1;
  t.mh_delivered := !(t.mh_delivered) + 1;
  if t.observing then begin
    let delivered_via =
      match via with
      | `Multicast -> `Multicast
      | `Regional -> `Regional
      | `Repair_remote | `Repair_local -> `Repair
    in
    emit t (Events.Delivered { id; via = delivered_via })
  end;
  (* first delivery: the message is not buffered yet *)
  start_retention t (Buffer.insert t.buffer ~phase:Buffer.Short_term payload);
  if t.observing then emit t (Events.Buffered { id; phase = Buffer.Short_term });
  relay_to_waiters t payload;
  (* a repair obtained from a remote region is multicast locally so
     neighbours sharing the loss receive it (Section 2.2) *)
  if via = `Repair_remote then schedule_regional_repair t payload

(* ------------------------------------------------------------------ *)
(* Handlers per wire message                                           *)
(* ------------------------------------------------------------------ *)

let handle_data t payload =
  match Recv_log.note_data t.recv (Payload.id payload) with
  | Recv_log.Duplicate -> ()
  | Recv_log.Fresh losses ->
    accept t payload ~via:`Multicast;
    List.iter (start_recovery t) losses

let handle_session t ~source ~max_seq =
  let losses = Recv_log.note_session t.recv ~source ~max_seq in
  List.iter (start_recovery t) losses

let handle_local_request t id ~src =
  match Buffer.find t.buffer id with
  | e ->
    touch t e;
    send t ~dst:src (Wire.Repair (Buffer.payload e))
  | exception Not_found ->
    if t.observing then
      (* the paper: a member without the message ignores the request;
         the requester will time out and probe someone else *)
      emit t (Events.Request_unanswerable id)

let record_pending_remote t id origin =
  let waiting =
    match Msg_id.Table.find_opt t.pending_remote id with
    | Some w -> w
    | None ->
      let w = Origins.create () in
      Msg_id.Table.add t.pending_remote id w;
      w
  in
  ignore (Origins.add waiting origin)

(* Section 3.3: the three cases for a remote (or forwarded-search)
   request *)
let handle_request_for_discardable t id ~origin ?ack ~announce_on_hit () =
  match Buffer.find t.buffer id with
  | e -> serve_from_buffer t e ~origin ?ack ~announce:announce_on_hit ()
  | exception Not_found ->
    if not (Recv_log.received t.recv id) then begin
      (* never received: remember the requester, relay when it arrives *)
      record_pending_remote t id origin;
      note_existence t id
    end
    else
      (* received but discarded: search the region for a bufferer *)
      start_search t id ~origin

let handle_remote_request t id ~origin =
  handle_request_for_discardable t id ~origin ~announce_on_hit:false ()

let handle_search t id ~origin ~src =
  handle_request_for_discardable t id ~origin ~ack:src ~announce_on_hit:true ()

let handle_repair t payload ~src =
  let id = Payload.id payload in
  if Recv_log.note_repaired t.recv id then begin
    let remote =
      not (Topology.same_region (Network.topology t.net) src t.node)
    in
    accept t payload ~via:(if remote then `Repair_remote else `Repair_local)
  end
  else begin
    (* duplicate repair: we already have the body; still serve anyone
       recorded as waiting *)
    touch_feedback t id;
    relay_to_waiters t payload
  end

let handle_regional_repair t payload =
  let id = Payload.id payload in
  suppress_regional t id;
  if Recv_log.note_repaired t.recv id then accept t payload ~via:`Regional
  else touch_feedback t id

let handle_have t id ~src =
  Msg_id.Table.replace t.known_bufferer id src;
  if Msg_id.Table.length t.searches <> 0 then
    match Msg_id.Table.find_opt t.searches id with
    | None -> ()
    | Some s ->
      (* the announcer buffers the message: point the remaining
         origins' probes straight at it *)
      Origins.iter s.origins (fun origin -> send t ~dst:src (Wire.Search { id; origin }));
      Origins.clear s.origins;
      cancel_search t id

(* index the digest once (every buffered id probes it), then revisit
   each buffered entry; stability of one entry is independent of the
   others, so the unspecified iteration order is fine *)
let handle_history t digest ~src =
  Node_id.Table.replace t.peer_digests src (Recv_log.index digest);
  Buffer.iter t.buffer (check_stability t)

let handle_handoff t payloads ~src =
  if t.observing then
    emit t (Events.Handoff_received { from = src; count = List.length payloads });
  List.iter
    (fun payload ->
      let id = Payload.id payload in
      match Buffer.find t.buffer id with
      | e -> (
        (* we already buffer it: take over the long-term role, trading
           the short-term retention clock for the lifetime *)
        match Buffer.phase e with
        | Buffer.Short_term ->
          Buffer.disarm e;
          promote t e
        | Buffer.Long_term -> ())
      | exception Not_found ->
        if Recv_log.note_repaired t.recv id then begin
          cancel_recovery t id;
          t.delivered <- t.delivered + 1;
          t.mh_delivered := !(t.mh_delivered) + 1;
          if t.observing then emit t (Events.Delivered { id; via = `Repair });
          relay_to_waiters t payload
        end;
        arm_lifetime t (Buffer.insert t.buffer ~phase:Buffer.Long_term payload);
        if t.observing then emit t (Events.Buffered { id; phase = Buffer.Long_term }))
    payloads

let handle_delivery t (delivery : Wire.t Network.delivery) =
  if t.alive then begin
    let src = delivery.Network.src in
    match delivery.Network.msg with
    | Wire.Data payload -> handle_data t payload
    | Wire.Session { max_seq } -> handle_session t ~source:src ~max_seq
    | Wire.Local_request id -> handle_local_request t id ~src
    | Wire.Remote_request { id; origin } -> handle_remote_request t id ~origin
    | Wire.Repair payload -> handle_repair t payload ~src
    | Wire.Regional_repair payload -> handle_regional_repair t payload
    | Wire.Search { id; origin } -> handle_search t id ~origin ~src
    | Wire.Have id -> handle_have t id ~src
    | Wire.Handoff payloads -> handle_handoff t payloads ~src
    | Wire.History digest -> handle_history t digest ~src
    | Wire.Gossip table ->
      (match t.failure_detector with
       | Some fd -> Membership.Gossip_fd.on_gossip fd table
       | None -> ())
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ~net ~config ~rng ~node ?caps ?observer ?metrics () =
  (match Config.validate config with
   | Ok () -> ()
   | Error msg ->
     invalid_arg ("Member.create: " ^ msg)
       [@lint.allow "H1 construction-time error path: raises before any hot op runs"]);
  let view = View.create (Network.topology net) ~owner:node in
  let mh name =
    match metrics with
    | None -> Metrics.null_handle ()
    | Some m -> Metrics.handle m name
  in
  let t =
    {
      net;
      sim = Network.sim net;
      caps = (match caps with Some c -> c | None -> netsim_caps net);
      config;
      rng;
      node;
      view;
      recv = Recv_log.create ();
      buffer = Buffer.create ~sim:(Network.sim net);
      observer;
      observing = observer <> None;
      recoveries = Msg_id.Table.create 16;
      pending_remote = Msg_id.Table.create 8;
      searches = Msg_id.Table.create 8;
      have_announced = Msg_id.Table.create 8;
      known_bufferer = Msg_id.Table.create 8;
      pending_regional = Msg_id.Table.create 8;
      peer_digests = Node_id.Table.create 8;
      history_ticker = None;
      next_seq = 0;
      delivered = 0;
      alive = true;
      session_ticker = None;
      failure_detector = None;
      rtt_estimate = Latency.intra_rtt (Network.latency net);
      mh_delivered = mh "rrmp.delivered";
      mh_touches = mh "rrmp.feedback_touches";
      mh_discarded = mh "rrmp.discarded";
    }
  in
  Buffer.set_on_expire t.buffer (expire t);
  Network.register net node (handle_delivery t);
  (match config.Config.buffering with
   | Config.Stability { exchange_interval; _ } ->
     t.history_ticker <-
       Some
         (Timer.Periodic.create t.sim ~interval:exchange_interval (fun () ->
              regional t (Wire.History (Recv_log.digest t.recv))))
   | Config.Two_phase | Config.Fixed_time _ | Config.Buffer_all -> ());
  t

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)
(* ------------------------------------------------------------------ *)

let send_session t =
  if t.next_seq > 0 then
    t.caps.cap_multicast_lossy ~cls:"session" ~src:t.node
      (Wire.Session { max_seq = t.next_seq - 1 })

(* a sender starts advertising its highest sequence number once it has
   multicast something (Section 2.1's session messages) *)
let ensure_session_ticker t =
  match (t.session_ticker, t.config.Config.session_interval) with
  | Some _, _ | None, None -> ()
  | None, Some interval ->
    t.session_ticker <-
      Some (Timer.Periodic.create t.sim ~interval (fun () -> send_session t))

let fresh_payload t ~size =
  let id = Msg_id.make ~source:t.node ~seq:t.next_seq in
  t.next_seq <- t.next_seq + 1;
  ensure_session_ticker t;
  Payload.make ?size id

let own_send_bookkeeping t payload =
  let id = Payload.id payload in
  ignore (Recv_log.note_data t.recv id);
  t.delivered <- t.delivered + 1;
  t.mh_delivered := !(t.mh_delivered) + 1;
  start_retention t (Buffer.insert t.buffer ~phase:Buffer.Short_term payload);
  if t.observing then emit t (Events.Buffered { id; phase = Buffer.Short_term })

let multicast t ?size () =
  let payload = fresh_payload t ~size in
  own_send_bookkeeping t payload;
  t.caps.cap_multicast_lossy ~cls:"data" ~src:t.node (Wire.Data payload);
  Payload.id payload

let multicast_reaching t ?size ~reach () =
  let payload = fresh_payload t ~size in
  own_send_bookkeeping t payload;
  t.caps.cap_multicast ~cls:"data" ~src:t.node ~reach (Wire.Data payload);
  Payload.id payload

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let has_received t id = Recv_log.received t.recv id

let buffers t id = Buffer.mem t.buffer id

let buffer_phase t id =
  match Buffer.find t.buffer id with
  | e -> Some (Buffer.phase e)
  | exception Not_found -> None

let buffer_size t = Buffer.size t.buffer

let buffer t = t.buffer

let missing_count t = Recv_log.missing_count t.recv

let delivered_count t = t.delivered

let recovering t id = Msg_id.Table.mem t.recoveries id

let rtt_estimate t = t.rtt_estimate

let searching t id = Msg_id.Table.mem t.searches id

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let[@lint.allow
     "D2 teardown cancels are order-insensitive: Sim.cancel and Timer stops only \
      lazy-invalidate handles and emit no observable event"] stop_all_timers t =
  Buffer.iter t.buffer Buffer.disarm;
  Msg_id.Table.iter
    (fun _ r ->
      Option.iter Sim.cancel r.local_timer;
      Option.iter Sim.cancel r.remote_timer)
    t.recoveries;
  Msg_id.Table.reset t.recoveries;
  Msg_id.Table.iter (fun _ s -> Option.iter Sim.cancel s.search_timer) t.searches;
  Msg_id.Table.reset t.searches;
  Msg_id.Table.iter (fun _ handle -> Sim.cancel handle) t.pending_regional;
  Msg_id.Table.reset t.pending_regional;
  (match t.history_ticker with
   | Some ticker -> Timer.Periodic.stop ticker
   | None -> ());
  t.history_ticker <- None;
  (match t.session_ticker with
   | Some ticker -> Timer.Periodic.stop ticker
   | None -> ());
  t.session_ticker <- None;
  (match t.failure_detector with
   | Some fd -> Membership.Gossip_fd.stop fd
   | None -> ());
  t.failure_detector <- None

let leave t =
  if t.alive then begin
    (* Section 3.2: transfer each long-term-buffered message to a
       randomly selected receiver in the region *)
    let by_target = Node_id.Table.create 8 in
    List.iter
      (fun payload ->
        match View.random_local t.view t.rng with
        | None -> ()
        | Some target ->
          let batch =
            match Node_id.Table.find_opt by_target target with
            | Some b -> b
            | None ->
              let b = ref [] in
              Node_id.Table.add by_target target b;
              b
          in
          batch := payload :: !batch)
      (Buffer.long_term_payloads t.buffer);
    (* handoffs hit the network: send in target order, not in the
       hashtable's layout order, so seeded runs cannot depend on the
       id hash function *)
    let targets =
      Node_id.Table.fold (fun target batch acc -> (target, batch) :: acc) by_target []
      |> List.sort (fun (a, _) (b, _) -> Node_id.compare a b)
    in
    List.iter
      (fun (target, batch) ->
        if t.observing then
          emit t (Events.Handoff_sent { to_ = target; count = List.length !batch });
        send t ~dst:target (Wire.Handoff (List.rev !batch)))
      targets;
    stop_all_timers t;
    Network.unregister t.net t.node;
    t.alive <- false
  end

let crash t =
  if t.alive then begin
    stop_all_timers t;
    Network.unregister t.net t.node;
    t.alive <- false
  end

(* ------------------------------------------------------------------ *)
(* Experiment state injection                                          *)
(* ------------------------------------------------------------------ *)

(* process a delivery as if the network had just handed it over,
   bypassing latency/loss/traffic counters: allocation tests and custom
   harnesses drive the receive path directly with a preallocated record *)
let inject_delivery t delivery = handle_delivery t delivery

(* ------------------------------------------------------------------ *)
(* Failure detection (the gossip-style detector RRMP builds on)        *)
(* ------------------------------------------------------------------ *)

let enable_failure_detection t ~gossip_interval ~fail_timeout =
  match t.failure_detector with
  | Some _ -> ()
  | None ->
    (* the detector maintains the local region's membership: gossip
       stays intra-region so heartbeats circulate densely *)
    let peers = View.local_members t.view in
    let fd =
      Membership.Gossip_fd.create ~sim:t.sim ~rng:(Rng.split t.rng) ~self:t.node ~peers
        ~gossip_interval ~fail_timeout
        ~send:(fun ~dst digest -> send t ~dst (Wire.Gossip digest))
        ()
    in
    t.failure_detector <- Some fd

let suspects t =
  match t.failure_detector with
  | None -> []
  | Some fd -> Membership.Gossip_fd.suspects fd

let is_suspected t node =
  match t.failure_detector with
  | None -> false
  | Some fd -> Membership.Gossip_fd.is_suspected fd node

let inject_loss t id = note_existence t id

let force_received t id =
  ignore (Recv_log.note_data t.recv id);
  cancel_recovery t id

let force_buffer t ~phase payload =
  let id = Payload.id payload in
  ignore (Recv_log.note_data t.recv id);
  cancel_recovery t id;
  if not (Buffer.mem t.buffer id) then begin
    let e = Buffer.insert t.buffer ~phase payload in
    match phase with
    | Buffer.Short_term -> start_retention t e
    | Buffer.Long_term -> arm_lifetime t e
  end

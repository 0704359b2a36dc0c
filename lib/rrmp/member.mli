(** One RRMP group member: the randomized error-recovery engine of
    Section 2 combined with the two-phase buffer management of
    Section 3.

    A member reacts to network deliveries (installed on its
    {!Netsim.Network.t} at creation) and to its own timers:

    - {b loss detection} via sequence gaps and session messages;
    - {b local recovery}: probe a uniformly random neighbour, timer set
      to the estimated RTT, repeat on expiry;
    - {b remote recovery}: with probability λ/n per round, ask a random
      parent-region member; if that member also misses the message it
      records the requester and relays on receipt;
    - {b short-term buffering}: every received message is buffered
      until no request for it has been seen for the idle threshold [T];
    - {b long-term buffering}: an idle message survives at each member
      with probability [C/n]; everyone else discards it;
    - {b search}: a request for a message this member has discarded is
      forwarded along a random walk until it hits a bufferer, which
      serves the requester and multicasts "I have the message";
    - {b handoff}: on voluntary {!leave}, the long-term buffer is
      transferred to random neighbours. *)

type t

(** The member's I/O capabilities: a clock read plus the four send
    primitives the protocol uses. Everything a member does to the
    outside world flows through this record, so the identical state
    machine runs against the deterministic sim (the default,
    {!netsim_caps}) or a real transport (lib/net builds socket-backed
    closures around the codec). The closures are fully applied at each
    call site and built once at creation: the indirection allocates
    nothing on the hot paths. *)
type caps = {
  cap_now : unit -> float;  (** current time, ms *)
  cap_unicast : cls:string -> src:Node_id.t -> dst:Node_id.t -> Wire.t -> unit;
  cap_regional : cls:string -> src:Node_id.t -> region:Region_id.t -> Wire.t -> unit;
  cap_multicast : cls:string -> src:Node_id.t -> reach:(Node_id.t -> bool) -> Wire.t -> unit;
  cap_multicast_lossy : cls:string -> src:Node_id.t -> Wire.t -> unit;
}

val netsim_caps : Wire.t Netsim.Network.t -> caps
(** The default capabilities: sim clock and the network's delivery
    primitives, exactly the pre-capability behaviour (seeded runs are
    byte-identical either way). *)

val create :
  net:Wire.t Netsim.Network.t ->
  config:Config.t ->
  rng:Engine.Rng.t ->
  node:Node_id.t ->
  ?caps:caps ->
  ?observer:Events.observer ->
  ?metrics:Tracing.Metrics.t ->
  unit ->
  t
(** Registers the member's handler on [net]. [rng] should be a
    {!Engine.Rng.split} of the experiment generator, one per member.

    [caps] (default {!netsim_caps}[ net]) overrides where sends and
    clock reads go; [net] still provides the topology view, the timer
    {!Engine.Sim.t} and registration, so a transport harness passes a
    quiet network whose sim it advances itself.

    Without [observer], no {!Events.t} value is ever constructed: every
    emission site is gated on the subscription, so the delivery and
    feedback hot paths stay allocation-free. [metrics], when given,
    receives [rrmp.delivered] / [rrmp.feedback_touches] /
    [rrmp.discarded] counters through pre-resolved handles.

    Each buffered message is one {!Buffer} entry carrying one exact
    retention deadline: the idle threshold while short-term, the
    lifetime once long-term. A feedback touch pushes it back without
    allocating or scheduling.
    {!Config.t.deadline_quantum} is ignored here.
    @raise Invalid_argument if [node] is not in the network's topology
    or the config fails {!Config.validate}. *)

val node : t -> Node_id.t

val view : t -> Membership.View.t

val config : t -> Config.t

val refresh_view : t -> unit
(** Re-read region membership (call after churn). *)

(** {1 Sending (any member can be the session's sender)} *)

val multicast : t -> ?size:int -> unit -> Protocol.Msg_id.t
(** Multicast the next message in this member's sequence to the whole
    session through the lossy IP-multicast primitive. *)

val multicast_reaching : t -> ?size:int -> reach:(Node_id.t -> bool) -> unit -> Protocol.Msg_id.t
(** Controlled-outcome multicast: exactly the receivers with [reach]
    true get the packet — how the paper seeds its experiments. *)

val send_session : t -> unit
(** Advertise the highest sequence number multicast so far (no-op if
    nothing was sent). *)

(** {1 Queries} *)

val has_received : t -> Protocol.Msg_id.t -> bool

val buffers : t -> Protocol.Msg_id.t -> bool

val buffer_phase : t -> Protocol.Msg_id.t -> Buffer.phase option

val buffer_size : t -> int

val buffer : t -> Buffer.t
(** Read-only access for occupancy accounting. *)

val missing_count : t -> int

val delivered_count : t -> int
(** Messages whose body this member has obtained (including its own
    sends). *)

val recovering : t -> Protocol.Msg_id.t -> bool

val rtt_estimate : t -> float
(** The member's running intra-region RTT estimate (ms), learned from
    its own request/repair exchanges; used for retry timers and, with
    {!Config.t.idle_rounds}, for the adaptive idle threshold. *)

val searching : t -> Protocol.Msg_id.t -> bool

(** {1 Lifecycle} *)

val leave : t -> unit
(** Voluntary departure: hand off each long-term-buffered message to a
    randomly selected region member (batched per target), stop all
    timers, deregister from the network. The caller is responsible for
    removing the node from the topology afterwards. *)

val crash : t -> unit
(** Fail-stop: deregister and stop timers without any handoff. *)

(** {1 Failure detection}

    RRMP was built on the gossip-style failure detection service of
    van Renesse, Minsky & Hayden; enabling it makes the member
    participate in heartbeat gossip over the protocol's network. *)

val enable_failure_detection : t -> gossip_interval:float -> fail_timeout:float -> unit
(** Idempotent. Heartbeats gossip to random members of the local
    region (the detector maintains regional membership, as in the
    gossip FD service RRMP builds on). *)

val suspects : t -> Node_id.t list
(** Members whose heartbeat is stale; empty when detection is off. *)

val is_suspected : t -> Node_id.t -> bool

(** {1 Experiment state injection}

    These bypass the wire so harnesses can construct the exact initial
    conditions the paper's figures start from. *)

val inject_loss : t -> Protocol.Msg_id.t -> unit
(** Make the member aware that the message exists and is missing, and
    start both recovery phases — the paper's "all other members
    simultaneously detect the loss". *)

val force_received : t -> Protocol.Msg_id.t -> unit
(** Mark as received-and-already-discarded (present in the reception
    log, absent from the buffer). *)

val force_buffer : t -> phase:Buffer.phase -> Payload.t -> unit
(** Mark as received and place it in the buffer in the given phase:
    a short-term entry starts its retention clock (the idle timer
    under [Two_phase]), a long-term entry its
    {!Config.t.long_term_lifetime} deadline when one is set. An entry
    already buffered is left as it is. *)

val inject_delivery : t -> Wire.t Netsim.Network.delivery -> unit
(** Process a delivery exactly as if it had just arrived from the
    network, bypassing latency, loss and traffic counters. Allocation
    tests drive the receive path in a tight loop with a preallocated
    record; not for use where network accounting matters. *)

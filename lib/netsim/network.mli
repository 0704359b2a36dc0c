(** Simulated best-effort network over a {!Topology.t}.

    Supports the three communication primitives the protocols need:
    point-to-point {!unicast}, {!regional_multicast} (scoped IP
    multicast within one region), and the session-wide best-effort
    {!ip_multicast} of new data. Delivery delays come from a
    {!Latency.t}; losses from a {!Loss.t} (applied per receiver).
    Packets to nodes that have left the session, or that leave while
    the packet is in flight, are dropped.

    Every send is tagged with a traffic class so experiments can
    account for protocol overhead (e.g. separate data packets from
    retransmission requests from gossip). *)

type 'msg t

(** Optional per-node egress capacity: packets queue FIFO at the
    sender and each occupies the link for [packet_bytes msg /
    bytes_per_ms]. Models the NACK/repair implosion that motivates
    distributed error recovery. *)
type 'msg bandwidth = { bytes_per_ms : float; packet_bytes : 'msg -> int }

(** The record handed to handlers and the delivery hook is {b pooled}:
    the network mutates it in place between deliveries, so read the
    fields during the call and do not retain the record. (Records built
    by callers, e.g. for {!Rrmp.Member.inject_delivery}-style replay,
    are ordinary values — only network-owned ones are reused.) *)
type 'msg delivery = {
  mutable src : Node_id.t;
  mutable dst : Node_id.t;
  mutable msg : 'msg;
  mutable sent_at : float;  (** virtual send time, ms *)
  mutable cls : string;  (** traffic class of the packet *)
}

val create :
  sim:Engine.Sim.t ->
  topology:Topology.t ->
  latency:Latency.t ->
  loss:Loss.t ->
  rng:Engine.Rng.t ->
  ?bandwidth:'msg bandwidth ->
  unit ->
  'msg t
(** Without [bandwidth], links have infinite capacity (the paper's
    setting).

    A multicast schedules one simulator event per distinct sampled
    delay instead of one per receiver; loss and latency are still
    sampled per receiver, in membership order, at send time, so the
    deliveries, counters and event ordering are those of one event per
    receiver. *)

val attach_metrics : 'msg t -> Tracing.Metrics.t -> unit
(** Route aggregate per-packet counters ([net.sent], [net.delivered],
    [net.dropped] — the last counts channel losses) into [metrics]
    through pre-resolved handles: attachment hashes each name once, the
    per-packet bumps are bare ref increments. Without an attachment the
    increments go to unregistered sinks, so the hot path is identical
    either way. *)

val sim : 'msg t -> Engine.Sim.t

val topology : 'msg t -> Topology.t

val latency : 'msg t -> Latency.t

val register : 'msg t -> Node_id.t -> ('msg delivery -> unit) -> unit
(** Install the receive handler for a node (replacing any previous
    one). A node with no handler silently drops inbound packets.
    Handlers sit in a slot indexed by node id (ids are dense topology
    indices), so a delivery reaches its handler without hashing. *)

val unregister : 'msg t -> Node_id.t -> unit

val unicast : 'msg t -> cls:string -> src:Node_id.t -> dst:Node_id.t -> 'msg -> unit
(** Send one packet. It is subject to loss, then delivered after a
    latency sampled from the intra- or inter-region model according to
    the positions of [src] and [dst]. Self-sends are delivered after an
    intra-region delay. *)

val regional_multicast :
  'msg t -> cls:string -> src:Node_id.t -> region:Region_id.t -> ?include_src:bool -> 'msg -> unit
(** One multicast scoped to [region]: each member (minus [src] unless
    [include_src]) independently experiences loss and latency. *)

val ip_multicast :
  'msg t -> cls:string -> src:Node_id.t -> reach:(Node_id.t -> bool) -> 'msg -> unit
(** Session-wide best-effort multicast of new data. [reach] decides
    which receivers get the packet (so experiments can force a specific
    initial-delivery outcome, as the paper does); receivers with
    [reach] true still do NOT suffer additional random loss. The source
    itself is excluded. *)

val ip_multicast_lossy : 'msg t -> cls:string -> src:Node_id.t -> 'msg -> unit
(** Session-wide multicast where each receiver's outcome is drawn from
    the network's loss model. *)

(** {1 Traffic accounting} *)

type counter = {
  sent : int;  (** packets put on the wire (per receiver for multicast) *)
  delivered : int;
  dropped_loss : int;  (** lost by the channel *)
  dropped_dead : int;  (** destination had left or never registered *)
}

val stats : 'msg t -> cls:string -> counter
(** Zero counter for an unknown class. *)

val classes : 'msg t -> string list
(** All classes seen so far, sorted. *)

val total_sent : 'msg t -> int

val total_delivered : 'msg t -> int

val reset_stats : 'msg t -> unit

val set_delivery_hook : 'msg t -> ('msg delivery -> unit) option -> unit
(** Observation hook invoked on every successful delivery, before the
    destination's handler (used by tracing). *)

val egress_backlog : 'msg t -> Node_id.t -> float
(** With a bandwidth model: how many ms of queued transmissions the
    node's egress currently holds (0 without a model). *)

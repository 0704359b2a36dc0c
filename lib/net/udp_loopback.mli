(** {!Transport.S} over real nonblocking UDP sockets on 127.0.0.1.

    One socket per member, bound to an ephemeral port (learned back
    through getsockname, so parallel runs never collide); the sender
    of a received datagram is identified by its source port. Frames
    travel through {!Rrmp.Codec}: each transmission is encoded once
    into a preallocated send frame, however many datagrams it fans
    out to; receives validate through a pooled decoder and only
    materialize messages that parse — corrupt or foreign datagrams
    are counted, never raised.

    Transport-level loss injection ([loss], decided by a seeded
    {!Engine.Rng} on the send side) gives controlled-loss experiments
    on a link that otherwise only drops under real queue pressure. *)

type t

val create :
  ?loss:float -> ?seed:int -> ?slot_bytes:int -> nodes:Node_id.t array -> unit -> t
(** Open one socket per node. [loss] (default 0) is the independent
    per-datagram drop probability; [seed] fixes the drop schedule;
    [slot_bytes] (default 64 KiB) bounds the largest sendable frame.
    @raise Invalid_argument on a loss outside [0, 1] (and
    @raise Unix.Unix_error if sockets cannot be opened at all). *)

val send : t -> src:Node_id.t -> dst:Node_id.t -> Rrmp.Wire.t -> unit
(** Encode and emit one datagram from [src]'s socket to [dst]'s port.
    Injected loss, kernel backpressure and oversize frames are counted
    in {!stats}, not raised.
    @raise Invalid_argument if either node is not part of this
    transport. *)

val fanout :
  t -> src:Node_id.t -> Node_id.t array -> keep:(Node_id.t -> bool) -> Rrmp.Wire.t -> unit
(** [fanout t ~src dsts ~keep msg] sends [msg] to every [dst] of
    [dsts] other than [src] for which [keep dst] holds: the loopback
    stand-in for one multicast. The frame is encoded and staged once;
    then, per destination in array order, loss is drawn and the
    datagram sent exactly as {!send} would, so the seeded drop
    schedule and every {!stats} counter equal those of the same
    {!send}s made one by one. [keep] must not send on [t]: the staged
    frame is shared across the whole fan-out.
    @raise Invalid_argument if [src] or a kept destination is not
    part of this transport. *)

val drain : t -> handle:(src:Node_id.t -> dst:Node_id.t -> Rrmp.Wire.t -> unit) -> int
(** Pump every socket until the kernel reports it empty, decoding and
    handing each message up (payload bodies are fresh copies, safe to
    retain). Returns the number of messages handed up. *)

val stats : t -> Transport.stats

val nodes : t -> Node_id.t array

val port : t -> Node_id.t -> int
(** The UDP port a node's socket is bound to (diagnostics). *)

val close : t -> unit
(** Close every socket; further sends and drains are no-ops. *)

(** Timer utilities built on {!Sim}. *)

(** A deadline that passes after a period with no activity; every
    {!Idle.touch} pushes it back. This is exactly the shape of RRMP's
    idle-threshold detection: "no request received for T ms".

    The value holds no closure and no simulator, so an owner embeds
    one per object (a buffered message) at the cost of one small
    record. The owner keeps the single action that runs at the
    deadline and passes it to {!Idle.arm}; the action must begin with
    {!Idle.expired}, which tells a real expiry from a stale one.

    Firing is exact and identical to cancelling and re-scheduling the
    action on every touch: it runs at the instant [timeout] ms after
    the last touch, in the same FIFO place among same-instant events.
    The cost is not: {!Idle.touch} records the touch and reserves the
    replacement event's sequence number ({!Sim.reserve_seq}),
    allocating nothing and leaving the scheduler alone; when the armed
    event comes due, {!Idle.expired} re-arms it in that reserved slot
    ({!Sim.schedule_with_seq}). A deadline touched [k] times per quiet
    period thus costs one scheduler entry per period, not [k]. *)
module Idle : sig
  type t

  val create : unit -> t
  (** A disarmed deadline. *)

  val arm : Sim.t -> t -> timeout:float -> (unit -> unit) -> unit
  (** Disarm, then schedule [action] [timeout] ms from now; each later
      {!touch} pushes it to [timeout] ms after the touch. [action] must
      start with {!expired} on this same [t] and [action]. *)

  val expired : Sim.t -> t -> (unit -> unit) -> bool
  (** The first call in the armed action. [true] when the quiet period
      has really elapsed: [t] is now disarmed and the action goes on.
      [false] when a touch pushed the deadline back: [t] has re-armed
      [action] in the reserved slot, and the action must return. *)

  val touch : Sim.t -> t -> unit
  (** Reset the quiet period. No-op while disarmed. Allocation-free:
      two field writes and a sequence-number reservation. *)

  val stop : t -> unit
  (** Disarm without running the action. *)

  val active : t -> bool
end

(** A fixed-interval repeating timer. *)
module Periodic : sig
  type t

  val create : ?jitter:(unit -> float) -> Sim.t -> interval:float -> (unit -> unit) -> t
  (** First tick after one interval (plus jitter, if any). [jitter]
      is sampled per tick and added to the interval; the result is
      clamped to be positive. *)

  val stop : t -> unit

  val active : t -> bool
end

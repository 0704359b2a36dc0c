(** Timer utilities built on {!Sim}. *)

(** A timer that fires once after a period with no activity; every
    {!Idle.touch} pushes the deadline back. This is exactly the shape of
    RRMP's idle-threshold detection: "no request received for T ms".

    Firing is exact and identical to cancelling and re-scheduling the
    timer on every touch: [on_idle] runs at the instant [timeout] ms
    after the last touch, in the same FIFO place among same-instant
    events. The cost is not: {!Idle.touch} writes the new deadline and
    reserves the replacement event's sequence number
    ({!Sim.reserve_seq}), allocating nothing and leaving the scheduler
    alone; the armed event re-arms itself in that reserved slot
    ({!Sim.schedule_with_seq}) when it comes due. A timer touched [k]
    times per quiet period thus costs one scheduler entry per period,
    not [k]. *)
module Idle : sig
  type t

  val create : Sim.t -> timeout:float -> on_idle:(unit -> unit) -> t
  (** Starts armed: with no touches, [on_idle] fires [timeout] ms from
      now. [on_idle] runs at most once unless {!restart} is called. *)

  val touch : t -> unit
  (** Reset the quiet period. No-op after the timer fired or was
      stopped. Allocation-free: two field writes and a sequence-number
      reservation. *)

  val stop : t -> unit
  (** Disarm without firing. *)

  val restart : t -> unit
  (** Re-arm a fired or stopped timer for a fresh quiet period. *)

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

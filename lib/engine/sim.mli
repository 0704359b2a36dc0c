(** Discrete-event simulation driver.

    A [t] owns a virtual clock (in milliseconds) and an event queue.
    Events scheduled for the same instant run in the order they were
    scheduled, which together with {!Rng} makes runs fully
    deterministic. Callbacks may schedule further events.

    Internally, the queue is one hierarchical timer wheel (256/64/64
    slots at 1 ms) whose buckets are chains linked through the handles
    themselves, so {!schedule} allocates the handle and nothing else
    and {!cancel} is O(1). A bucket is sorted once, when the clock
    reaches it; events more than 2^20 ms ahead wait on a far chain
    until the wheel's window reaches them. Every event carries a global
    sequence number and fires in (fire-time, seq) order wherever it was
    stored. *)

type t

type handle
(** A scheduled event that can be cancelled before it fires. *)

val never : handle
(** A shared, already-fired handle: {!cancel} and {!cancelled} treat it
    as inert. Use it as the "no timer armed" value of a handle-valued
    field, avoiding an [option] box per re-arm on hot paths. *)

val create : ?now:float -> unit -> t
(** Fresh simulation with the clock at [now] (default 0.0 ms). Every
    driver gets the same queue: the timer wheel, with its far chain for
    events beyond the 2^20 ms window. *)

val now : t -> float
(** Current virtual time in milliseconds. *)

val pending : t -> int
(** Number of events still queued, including cancelled ones that have
    been neither reaped nor compacted away. *)

val cancelled_pending : t -> int
(** Cancelled events still sitting in the queue. Once these exceed half
    of {!pending} (beyond a small floor), the next schedule triggers a
    compaction pass that drops them in bulk. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay]. A negative
    delay is clamped to 0 (runs "now", after already-queued events for
    this instant). *)

val schedule_at : t -> at:float -> (unit -> unit) -> handle
(** [schedule_at t ~at f] runs [f] at absolute time [at] (clamped to
    [now t]). *)

val reserve_seq : t -> int
(** Take the sequence number the next {!schedule} would have used,
    without scheduling anything. The number orders like any other:
    an event later placed with it through {!schedule_with_seq} runs
    exactly where an event scheduled at the moment of the reservation
    would have run. Counted by {!events_scheduled}. *)

val schedule_with_seq : t -> at:float -> seq:int -> (unit -> unit) -> handle
(** [schedule_with_seq t ~at ~seq f] runs [f] at [at] (clamped to
    [now t]) in the (time, seq) slot given by [seq], which must come
    from {!reserve_seq} on [t]. Each reserved number is used at most
    once, and only while its slot still lies ahead of the event being
    run (so [at] must not precede [now t], and at [now t] the
    reservation must be younger than the running event). This is how a
    deferred re-arm ({!Timer.Idle.touch}) keeps the place an eager
    cancel + re-schedule would have given it. *)

val cancel : handle -> unit
(** O(1); cancelling an already-fired or already-cancelled event is a
    no-op. *)

val cancelled : handle -> bool

val fire_time : handle -> float
(** The virtual time at which the handle is (or was) due. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the event queue. Stops when the queue is empty, when the next
    event is strictly later than [until], or once {!events_executed}
    (the sim's cumulative count, not this call's) reaches
    [max_events]: a second [run ~max_events:n] on the same sim runs
    nothing, and [run ~max_events:(events_executed t + k)] runs at most
    [k] callbacks. The clock ends at the time of the last executed
    event (or [until] if provided and larger). *)

val events_executed : t -> int
(** Total callbacks run since creation. *)

val events_scheduled : t -> int
(** Total events ever scheduled (fired, pending or cancelled): the
    difference against {!events_executed} is the cancellation traffic,
    and each unit of it is one handle allocation on the hot path. *)

(** A member's retransmission buffer.

    Entries are in one of the two phases of Section 3: [Short_term]
    (feedback-based: discarded once idle unless promoted) or
    [Long_term] (kept by the randomly chosen bufferers of an idle
    message). One entry per message holds the payload, its phase and
    its single retention deadline: while short-term, the idle threshold
    (or a baseline policy's discard), once long-term, the lifetime; the
    two never coexist. The buffer also accounts for occupancy over
    time — the integral of buffered bytes (and message count) over
    virtual time — which the overhead experiments report. *)

type phase = Short_term | Long_term

type t

type entry
(** One buffered message. Valid until {!remove}d. *)

val create : sim:Engine.Sim.t -> t

val set_on_expire : t -> (entry -> unit) -> unit
(** Install the action run when an entry's retention deadline passes
    (the default does nothing). The deadline is disarmed by the time
    the action runs. *)

val insert : t -> phase:phase -> Payload.t -> entry
(** Buffer the message in [phase], its deadline disarmed, and return
    its entry. If the id is already buffered, the existing entry is
    returned unchanged. *)

val find : t -> Protocol.Msg_id.t -> entry
(** @raise Not_found if the message is not buffered. *)

val mem : t -> Protocol.Msg_id.t -> bool

val payload : entry -> Payload.t

val phase : entry -> phase

val stored_at : entry -> float
(** Virtual time the entry was inserted. *)

val promote : t -> entry -> unit
(** Move an entry to [Long_term]; a long-term entry is left alone. The
    deadline is not changed. *)

val remove : t -> entry -> unit
(** Discard a buffered entry and disarm its deadline. [entry] must
    still be buffered in [t]. *)

(** {1 The retention deadline}

    {!Engine.Timer.Idle}'s deferred re-arm: a {!touch} pushes an armed
    deadline back without allocating or scheduling anything. *)

val arm : t -> entry -> timeout:float -> unit
(** (Re)arm the deadline [timeout] ms from now, replacing any armed
    one; each later {!touch} pushes it to [timeout] ms after the
    touch. *)

val touch : t -> entry -> unit
(** No-op while disarmed. *)

val disarm : entry -> unit

val armed : entry -> bool
(** Whether the deadline is armed: set by {!arm}, cleared by {!disarm},
    {!remove} or the deadline passing. *)

(** {1 Accounting} *)

val size : t -> int
(** Number of buffered messages. *)

val bytes : t -> int

val count_phase : t -> phase -> int
(** O(1): phase counts are maintained on insert/promote/remove. *)

val iter : t -> (entry -> unit) -> unit
(** Visit every entry, in unspecified order, without materializing a
    list. Callers must not depend on the order. *)

val fold : t -> init:'a -> ('a -> entry -> 'a) -> 'a
(** Fold over every entry, in unspecified order. *)

val contents : t -> (Payload.t * phase) list
(** Sorted by message id. Materializes and sorts the whole buffer —
    use {!iter}/{!fold} on hot paths. *)

val long_term_payloads : t -> Payload.t list
(** What a leaving member must hand off, sorted by id. *)

val occupancy_msg_ms : t -> float
(** Integral of (buffered message count) d(time), up to now. *)

val occupancy_byte_ms : t -> float

val peak_size : t -> int

val peak_bytes : t -> int

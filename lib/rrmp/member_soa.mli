(** Struct-of-arrays member state for the sharded scale path.

    One [t] holds the hot protocol state of {e every} member of a
    region, packed into flat arrays and byte-packed bitsets indexed by
    a dense member handle [0 <= m < n] and a bounded sequence number
    [0 <= seq < cap] of a single multicast source: receive
    watermarks/bitsets (the arrayified {!Protocol.Gap_detect}),
    two-phase buffer phase counters with incremental occupancy
    integrals, and one int deadline tick per (member, seq) swept by a
    built-in coalesced deadline ring. At 10^6 members this is a handful of flat
    arrays instead of ~10^6 heap records and per-member hashtables;
    every hot operation below is O(1) amortized and allocation-free.

    The record-based classic path ({!Member} over
    {!Protocol.Gap_detect}, {!Buffer} and {!Engine.Timer.Idle}) is
    retained as the reference model; [test/test_shard.ml] holds the
    qcheck lockstep suites proving the gap-detection and
    buffer/occupancy semantics equivalent. *)

type t

val create :
  now:float ->
  n:int ->
  cap:int ->
  quantum:float ->
  idle_timeout:float ->
  lifetime:float option ->
  on_expire:(member:int -> seq:int -> unit) ->
  on_gap:(member:int -> seq:int -> unit) ->
  unit ->
  t
(** Arena for [n] members and sequence numbers [0, cap) of one source
    ([n = 0] builds a valid empty arena — a shard that was assigned no
    regions), created at virtual time [now]. Each buffered entry has
    one deadline, passed to [on_expire] when it is due: the idle
    deadline, [idle_timeout] ms after the last {!touch}, while the
    entry is short-term, and the lifetime, [lifetime] ms after the last
    touch, once it is long-term. The entry is still buffered when
    [on_expire] runs, so {!long_term} tells the two apart. Deadlines
    are coalesced on a [quantum]-ms ring: deadline [d] belongs to tick
    [ceil (d / quantum)], and fires when that tick is swept — up to one
    quantum late, never early, in arming order within a tick.

    The arena schedules no events of its own: the owner calls
    {!sweep_until} after each window (the {!Engine.Shard.run}
    [on_window] hook) and reports {!deadlines_pending} from the [busy]
    hook — this is what lets one arena serve a whole shard without
    per-region sweep traffic.

    [on_gap] receives every sequence number newly detected as missing
    (by {!note_data} or {!note_session}), in ascending order per call.
    It is installed once here rather than passed per call so the
    deliver path never allocates a closure for the rare gap event.

    The per-key deadline tick and per-member occupancy integrals are
    Bigarray-backed (off the OCaml heap): the arena's memory is
    invisible to the GC, and scales with [n * cap] bytes, not heap
    words.
    @raise Invalid_argument on negative [n], non-positive [cap],
    [quantum], [idle_timeout] or [lifetime], or when [n * cap] would
    overflow the packed [(member, seq)] key range ([n * cap] must fit
    in an OCaml int — checked here so oversized configurations fail
    loudly instead of silently aliasing keys). *)

val members : t -> int

val capacity : t -> int

(** {2 Gap detection} (lockstep with {!Protocol.Gap_detect}) *)

val received : t -> int -> int -> bool
(** [received t m seq]. *)

val note_data : t -> int -> int -> bool
(** [note_data t m seq] records receipt of [seq] at member [m]. [false]
    if it was a duplicate; otherwise every sequence number newly
    detected as missing (strictly below [seq], never reported before)
    is passed to the create-time [on_gap] in ascending order.
    @raise Invalid_argument if [seq] is outside [0, cap). *)

val note_session : t -> int -> max_seq:int -> unit
(** Session message advertising the source's highest sequence number:
    newly detected losses (including [max_seq] itself if unreceived)
    go to the create-time [on_gap] in ascending order. *)

val note_repaired : t -> int -> int -> bool
(** Mark a missing sequence number as received; [false] if it already
    was (duplicate repair). *)

val missing_count : t -> int -> int

val received_count : t -> int -> int

val highest_seen : t -> int -> int
(** Highest sequence number member [m] knows to exist; -1 initially. *)

(** {2 Two-phase buffer} (lockstep with {!Buffer} and its one deadline) *)

val buffered : t -> int -> int -> bool

val long_term : t -> int -> int -> bool

val insert_short : t -> int -> int -> now:float -> bool
(** Buffer [seq] at member [m] in the short-term phase and arm its idle
    deadline. [false] (no change) if already buffered. *)

val touch : t -> int -> int -> now:float -> unit
(** Feedback touch: push an armed deadline out to [now] plus its
    phase's timeout. One array store — the ring re-buckets lazily at
    sweep time. No-op if not buffered or disarmed. *)

val promote_long : t -> int -> int -> now:float -> bool
(** Short-term -> long-term; replaces the idle deadline with the
    lifetime (disarmed when no lifetime is configured). [false] if the
    entry is absent or already long-term. *)

val drop : t -> int -> int -> now:float -> bool
(** Discard a buffered entry, disarming its deadline. [false] if it
    was not buffered. *)

val buffer_size : t -> int -> int

val long_count : t -> int -> int

val peak_size : t -> int -> int

val occupancy_msg_ms : t -> int -> float
(** Integral of buffered-message count over virtual time for member
    [m], up to the last state change; call {!settle} first to account
    up to "now". *)

val settle : t -> int -> now:float -> unit

val settle_all : t -> now:float -> unit

(** {2 Sweeping} *)

val sweep_until : t -> tick:int -> unit
(** Sweep every unswept ring tick up to and including [tick] (=
    [floor (barrier / quantum)]), firing due deadlines in arming order
    and lazily re-bucketing touched ones. Called from
    {!Engine.Shard.run}'s [on_window] hook while the shard's clock sits
    exactly at the barrier. Idempotent per tick; ticks at or before the
    creation time count as swept. *)

val deadlines_pending : t -> bool
(** Whether any ring tick still holds armed keys — reported through
    {!Engine.Shard.run}'s [busy] hook so quiescence detection keeps
    windows alive until the ring drains. *)

(** {2 Delivery and promotion accounting} *)

val deliveries : t -> int -> int

val note_delivery : t -> int -> unit

val promotions_of_seq : t -> int -> int
(** How many members of this region promoted [seq] to long-term — the
    per-message long-term-bufferer count the asymptotics comparison
    reads. *)

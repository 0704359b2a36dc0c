(** Hierarchical timer wheel for short-horizon events.

    Entries are bucketed by integer tick ([time / granularity]) into
    three levels of slots (256 x 1 tick, 64 x 256 ticks, 64 x 16384
    ticks — a horizon of 2^20 ticks). {!add} is O(1); entries in coarse
    slots cascade down lazily, exactly once per level, as the cursor
    crosses window boundaries.

    Despite the bucketing, {!pop} order is *exact*: each drained bucket
    is sorted once by the caller-supplied total order (normally
    (fire-time, sequence-number)), and entries landing behind the cursor
    are merge-inserted, so a wheel-backed scheduler fires events in
    precisely the same order as a heap-backed one. *)

type 'a t

val create :
  ?granularity:float ->
  ?start:float ->
  time_of:('a -> float) ->
  compare:('a -> 'a -> int) ->
  unit ->
  'a t
(** [create ~time_of ~compare ()] is an empty wheel whose cursor starts
    at [start] (default 0.0). [granularity] (default 1.0) is the tick
    width in the same unit as [time_of]. [compare] must be a total order
    consistent with [time_of] (equal times broken deterministically). *)

val length : 'a t -> int

val add : 'a t -> 'a -> bool
(** Insert an entry; O(1). Returns [false] (without inserting) when the
    entry lies 2^20 ticks or more past the start of the wheel's
    coarsest window — the caller should fall back to its far-future
    structure. Entries behind the cursor are accepted and
    merge-inserted in order. *)

val top : 'a t -> default:'a -> 'a
(** Earliest entry (by [compare]) without removing it, or [default]
    when empty. Amortized O(1) and allocation-free; may advance the
    cursor (lazy cascading). *)

val pop : 'a t -> 'a option
(** Remove and return the earliest entry. *)

val drop_head : 'a t -> unit
(** Remove the entry {!top} returned (no-op if none is staged). Only
    meaningful directly after {!top} returned an entry. *)

val filter_in_place : 'a t -> ('a -> bool) -> unit
(** Drop every entry failing the predicate (used to purge cancelled
    events); O(n). *)

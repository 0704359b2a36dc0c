(** Interning arena for hot-path wire messages.

    Each member owns one arena; asking it for a hot-path message
    ([Data]/[Repair]/[Regional_repair]/[Local_request]/
    [Remote_request]/[Session]) returns a cached {!Wire.t} cell that is
    {b structurally equal} to the fresh construction, so dispatch,
    {!Wire.bytes}, {!Wire.cls} and every seeded experiment report are
    unchanged — but the steady-state resends (recovery retries, repairs
    served repeatedly, duplicate regional re-multicasts, session ticks)
    allocate nothing. {!Wire.t} itself remains the cold-path and
    pretty-print view; the cold constructors ([Search]/[Have]/
    [Handoff]/[History]/[Gossip]) are built directly.

    Payload-carrying cells are revalidated by pointer against the
    payload being sent, so a cached cell can never resurrect a stale
    body. An arena created while {!default_enabled} is [false]
    constructs a fresh value on every call — the reference path the
    equivalence suite compares against. *)

type t

val create : origin:Node_id.t -> unit -> t
(** [origin] is the owning member's address: it names the requester in
    every {!remote_request} this arena produces. Whether the arena
    interns is {!default_enabled}, sampled here at creation time. *)

val set_default_enabled : bool -> unit
(** Process-wide switch (the [Pool.set_default_workers] convention),
    the one way to turn interning off: harnesses flip it to compare
    whole experiment registries with the arena on and off. Defaults to
    [true]; existing arenas are unaffected. *)

val default_enabled : unit -> bool

val data : t -> Payload.t -> Wire.t

val repair : t -> Payload.t -> Wire.t

val regional_repair : t -> Payload.t -> Wire.t

val local_request : t -> Protocol.Msg_id.t -> Wire.t

val remote_request : t -> Protocol.Msg_id.t -> Wire.t
(** The request's [origin] field is the arena's [origin]. *)

val session : t -> max_seq:int -> Wire.t

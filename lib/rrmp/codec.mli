(** Binary wire format for {!Wire.t}: the real-traffic serialization
    behind `lib/net`'s UDP transport.

    Frames are length-prefixed and little-endian: a 32-byte header
    (magic, version, tag, var-length, message-id source and sequence,
    entry count, header checksum) followed by the tag's variable
    section. Payload-class frames ([Data]/[Repair]/[Regional_repair])
    append the body directly; [Handoff] appends per-entry framing
    (id + length, 24 bytes) plus each body; control-class frames pad
    to 64 bytes and append their entries ([History]: 16 bytes per
    source + 8 per missing seq; [Gossip]: 16 per entry). Sizes agree
    with {!Wire.bytes} on every constructor — the symbolic byte
    accounting used by the bandwidth model is the real format's size.

    The header checksum covers only the 32 framing bytes: a corrupt
    length or count is rejected before it can steer the parser, while
    body bytes stay untouched on the steady-state path (end-to-end
    body integrity belongs to {!Payload.intact}/{!Payload.checksum}).

    Allocation contract (asserted by the [alloc/codec-encode] and
    [alloc/codec-decode] gates): {!encode} into a caller-provided
    buffer and {!read} through a preallocated {!decoder} allocate
    nothing on success — materializing a {!Wire.t} with {!view} is
    the explicitly-allocating step. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap frame storage, same element type as {!Payload.body}. *)

type error =
  | Truncated  (** shorter than a header, or extends past the buffer *)
  | Bad_magic
  | Bad_version
  | Bad_tag
  | Bad_length  (** header var-length disagrees with the frame length *)
  | Bad_checksum  (** header corruption (covers flipped framing fields) *)
  | Bad_field  (** a value out of range, or entries not ending on the frame edge *)

type status = Ok_frame | Err of error
(** Outcome of {!read}. All-constant error reporting on the never-raise
    decode path ([Err] carries a constant constructor, so a failing
    frame costs at most one small block; a good frame costs none). *)

val error_to_string : error -> string

val pp_error : Format.formatter -> error -> unit

val header_bytes : int
(** 32: every frame starts with this header. *)

val control_bytes : int
(** 64: minimum size of a control-class frame. *)

val encoded_size : Wire.t -> int
(** Exact frame size for a message, derived from the layout constants;
    equal to {!Wire.bytes} for every constructor (unit-tested per
    constructor). *)

val encode : buf -> off:int -> Wire.t -> int
(** [encode buf ~off msg] writes the frame at [off] and returns its
    size. Allocation-free. @raise Invalid_argument if the frame does
    not fit at [off], or the message holds a value the format cannot
    carry (negative session max_seq / heartbeat / missing seq, history
    horizon below -1). *)

type decoder
(** Preallocated decode state: one {!read} result lives in mutable
    fields, so the validation pass allocates nothing. A decoder is
    single-frame — the next {!read} overwrites the previous view. *)

val create_decoder : unit -> decoder

val read : decoder -> buf -> off:int -> len:int -> status
(** Validate the frame at [buf.(off..off+len)] and park it in the
    decoder. Never raises, whatever the bytes: every framing error
    comes back as [Err]. On [Ok_frame] the frame's fields (including
    list-entry consistency — counts, lengths and ranges all checked
    against the frame extent) are available to {!view}. *)

val view : decoder -> copy:bool -> Wire.t
(** Materialize the last successfully read frame. With [copy:false],
    payload bodies are zero-copy sub-slices of the read buffer — valid
    only until the caller reuses that storage (a transport's receive
    frame); with [copy:true] bodies are fresh off-heap allocations
    safe to retain (what a member's buffer needs). Control frames
    never reference the buffer after [view].
    @raise Invalid_argument if the last {!read} did not return
    [Ok_frame]. *)

val decode : ?copy:bool -> buf -> off:int -> len:int -> (Wire.t, error) result
(** One-shot [read] + [view] through a fresh decoder; [copy] defaults
    to [true]. Never raises on arbitrary bytes (the fuzz suite's
    entry point). *)

val unsafe_blit_to_bytes : buf -> int -> Bytes.t -> int -> int -> unit
(** [unsafe_blit_to_bytes src soff dst doff len] copies [len] bytes
    with the codec's own word-wide copy (eight bytes per load/store,
    any alignment): how a transport moves an encoded frame into the
    [Bytes] a socket call takes. No bounds checks — the caller
    guarantees both ranges lie inside their buffers. *)

val unsafe_blit_of_bytes : Bytes.t -> int -> buf -> int -> int -> unit
(** The reverse copy, for a received datagram on its way to {!read};
    same contract. *)

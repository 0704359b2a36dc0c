(** Per-receiver reception state across (possibly) multiple sources:
    a {!Gap_detect.t} per source plus duplicate accounting. *)

type t

val create : unit -> t

type verdict = Fresh of Msg_id.t list | Duplicate
(** [Fresh losses] carries the message ids newly detected as lost. *)

val note_data : t -> Msg_id.t -> verdict

val note_session : t -> source:Node_id.t -> max_seq:int -> Msg_id.t list
(** Newly detected losses triggered by a session message. *)

val note_repaired : t -> Msg_id.t -> bool
(** [true] if this repaired a message we did not have (i.e. it was
    useful, not a duplicate repair). *)

val received : t -> Msg_id.t -> bool

val missing : t -> Msg_id.t list
(** All detected, unrepaired losses across sources. *)

val missing_count : t -> int

val received_count : t -> int

val duplicates : t -> int
(** Data packets and repairs that carried nothing new. *)

val sources : t -> Node_id.t list

type digest = (Node_id.t * (int * int list)) list
(** Per source: (horizon, missing seqs) — see {!Gap_detect.digest}. *)

val digest : t -> digest
(** Sorted by source. *)

type indexed
(** A digest compiled for repeated membership probes: sorted arrays
    per source, answering each probe with two binary searches. *)

val index : digest -> indexed
(** Build once per received digest (e.g. per History message); each
    subsequent {!indexed_has} probe is O(log sources + log missing)
    and allocation-free. *)

val indexed_has : indexed -> Msg_id.t -> bool
(** Whether the owner of the digest the index was built from has
    received the given message: its seq is at most the source's
    horizon and not among the source's missing seqs. *)

(** Reference model for [Protocol.Gap_detect]: the original
    [Set.Make(Int)] implementation kept as an executable specification.
    State grows with session length — O(received) memory, O(log n) per
    operation — which is exactly why the production detector replaced
    it; the qcheck model suites check the two agree on every
    observable. The signature mirrors [Protocol.Gap_detect]. *)

type t

val create : unit -> t

val note_data : t -> int -> [ `Fresh of int list | `Duplicate ]

val note_session : t -> max_seq:int -> int list

val note_repaired : t -> int -> unit

val received : t -> int -> bool

val missing : t -> int list

val missing_count : t -> int

val highest_seen : t -> int option

val received_count : t -> int

val digest : t -> int * int list

(** Per-path allocation gates: the zero-allocation steady state made
    enforceable.

    Each gate drives one named hot path in isolation — SoA delivery
    bookkeeping, gap detection from a session advertisement, a served
    local repair, a served remote repair, one message's buffered life
    on the classic [Member] path, the sharded regional-repair
    fan-out, a deadline touch, a Sim schedule, and the wire codec's
    encode and decode (the per-datagram cost of the real-traffic
    backend) — and charges the minor-heap words the OCaml runtime
    allocated against a per-path budget. The budgets
    are the single source of truth: [bench/main.exe] reports them
    into [BENCH_alloc.json] and the [rrmp.allocation_gates] test suite
    asserts them on every [dune runtest], so an accidental closure or
    [Some] box on a hot path fails the build instead of shifting a
    trajectory number.

    Paths marked {e exact} must allocate {b nothing} — 0.0 words/op
    after subtracting the constant cost of the two [Gc.minor_words]
    probe calls themselves. *)

type result = {
  name : string;  (** gate name, e.g. ["alloc/deliver"] *)
  what : string;  (** one-line description of the driven path *)
  ops : int;  (** operations inside the measured window *)
  minor_words_per_op : float;
      (** minor-heap words per op, probe overhead subtracted, clamped
          at 0 *)
  ns_per_op : float;  (** CPU time per op (coarse; words are the gate) *)
  budget : float;  (** maximum admissible words/op *)
  exact : bool;  (** gate additionally requires exactly 0.0 *)
}

val run : ?quick:bool -> unit -> result list
(** Drive every gate and return one result per path, in a fixed order.
    [quick] (default [false]) shrinks the op counts for smoke runs;
    budgets are identical in both modes. *)

val failures : result list -> string list
(** Human-readable violation messages — empty when every gate holds. *)

val pp_result : Format.formatter -> result -> unit

(** Cross-region parcel routing for the sharded simulation.

    When the simulation is sharded ({!Engine.Shard}), every region owns
    an outbox chain through its shard's slot block; a message whose
    destination lies in another region is {e posted} to the source
    region's chain during the window and only {e injected} into the
    destination region's shard at the next barrier, via {!exchange}. The quantization is applied to {b every}
    cross-region packet — even when both regions happen to share a
    shard — which is what makes the observable result independent of
    the shard count.

    Determinism: region chains are drained in ascending source-region
    order and each chain preserves emission order (plain arrays and int
    links end to end — no unordered-container iteration), so for any
    destination region the injection order of its incoming parcels is a
    pure function of the workload, never of the region-to-shard
    assignment.

    Allocation and layout: parcels are pooled mutable slots with
    pre-allocated fire thunks and reusable destination buffers. A shard
    owns one growable slot block shared by all of its regions; a
    region's outbox is a (head, tail) pair of ints chaining its slots
    through the block — two words of fixed cost per region, so region
    count can grow into the thousands without per-region vectors. Free
    lists are per shard and only ever touched by the owning shard's
    domain (a slot is recycled by the destination shard when it fires
    and reused by that same shard's next post). Steady-state posting
    and injection allocate nothing beyond the {!Engine.Sim} event that
    fires each parcel. *)

type 'msg t

val create :
  regions:int ->
  shards:int ->
  shard_of:(int -> int) ->
  sim_of:(int -> Engine.Sim.t) ->
  deliver:(region:int -> member:int -> 'msg -> unit) ->
  'msg t
(** [create ~regions ~shards ~shard_of ~sim_of ~deliver] routes
    parcels between [regions] regions spread over [shards] shards;
    [shard_of r] is the shard owning region [r] (must be stable and in
    [0, shards)), [sim_of r] is that shard's event loop, and [deliver]
    is invoked inside it when a parcel fires. The fabric needs no
    quantum: {!exchange} checks each arrival against the barrier it is
    given.
    @raise Invalid_argument if [regions < 0] or [shards < 1]. *)

val unicast :
  'msg t -> src_region:int -> dst_region:int -> dst_member:int -> arrival:float -> 'msg -> unit
(** Post a single-destination parcel (remote-recovery requests and
    repairs). [arrival] is the absolute delivery time, sampled by the
    caller at send time; it must be at least one quantum away so it
    lands beyond the next barrier. *)

val fanout :
  'msg t ->
  src_region:int ->
  dst_region:int ->
  arrival:float ->
  dsts:int array ->
  ?n:int ->
  'msg ->
  unit
(** Post a batched multi-destination parcel (one per destination region
    of a multicast): at [arrival] the destination shard delivers to
    every member index in [dsts.(0 .. n-1)] ([n] defaults to the full
    array), in array order, from a single event. The destinations are
    copied into the parcel's pooled buffer, so the caller may reuse
    [dsts] as scratch immediately.
    @raise Invalid_argument if [n] is negative or exceeds
    [Array.length dsts]. *)

val exchange : 'msg t -> barrier:float -> int
(** Drain every outbox (ascending region order, emission order within a
    region) into the destination shards and return the number of
    parcels injected. Called by {!Engine.Shard.run} at each barrier
    while the shards are parked.
    @raise Invalid_argument if a parcel's arrival precedes [barrier] —
    the conservative-time premise (cross-region delay >= one quantum)
    was violated by the caller's latency configuration. *)

val posted : 'msg t -> int
(** Total parcels posted so far (cross-region traffic volume). *)

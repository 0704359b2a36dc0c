(** Extension: large-group scale-out sweep over region size at fixed
    per-member load, over the classic {!Rrmp.Member} path with its
    exact per-message deadlines.

    Reports recovery latency, buffer occupancy and simulator event
    counts per region size — simulation-domain values only, so seeded
    reports are byte-identical everywhere; the wall-clock side of the
    sweep lives in [BENCH_scale.json]. The sharded variants
    ({!run_sharded}, {!run_1m}) run {!Rrmp.Sharded} and take the
    deadline [quantum] that sets its ring and barrier window. *)

type run_stats = {
  members : int;
  delivered : int;
  touches : int;  (** feedback touches — the deadlines' hot op *)
  recovered : int;
  recovery_mean : float;
  occupancy_msg_ms : float;
  peak_buffered : int;
  sim_events : int;
}

val run_once :
  n:int ->
  msgs:int ->
  burst:int ->
  ?gap:float ->
  ?loss_frac:float ->
  ?lifetime:float ->
  seed:int ->
  ?observe:bool ->
  unit ->
  run_stats
(** One seeded run: [msgs] sender multicasts in bursts of [burst]
    every [gap] ms (default 25), each receiver missing each message
    independently with probability [loss_frac] (default 0.05), long-term
    lifetime [lifetime] ms (default 400). [observe] = false skips the
    event observer so the benchmark can measure the allocation-free
    path. *)

val run :
  ?sizes:int list ->
  ?msgs:int ->
  ?burst:int ->
  ?trials:int ->
  ?seed:int ->
  unit ->
  Report.t

val run_once_sharded :
  regions:int ->
  per_region:int ->
  msgs:int ->
  burst:int ->
  ?gap:float ->
  ?loss_frac:float ->
  ?lifetime:float ->
  quantum:float ->
  seed:int ->
  ?shards:int ->
  ?observe:bool ->
  unit ->
  run_stats * int * int
(** One seeded run over {!Rrmp.Sharded}: [regions] regions of
    [per_region] members in a one-hop star under the sender's region,
    partitioned over [shards] (default {!Engine.Shard.default_shards};
    may exceed [regions] — surplus shards stay empty) conservative-time
    shards. Same workload shape as {!run_once}. Returns [(stats,
    cross_region_parcels, long_term_bufferers_total)]. Every returned
    value is shard-count invariant. [observe] attaches a counting
    per-shard observer (exercises the observed path; default [false]
    keeps the hot path allocation-free). *)

val run_sharded :
  ?cells:(int * int) list ->
  ?msgs:int ->
  ?burst:int ->
  ?trials:int ->
  ?quantum:float ->
  ?seed:int ->
  unit ->
  Report.t
(** Sharded sweep over [(regions, per_region)] cells; the full default
    tops out above 10^5 members. Trials run sequentially (the shard
    driver owns the worker pool). The report carries sim-domain values
    only and is byte-identical across shard and worker counts. *)

val run_1m :
  ?cells:(int * int) list ->
  ?msgs:int ->
  ?burst:int ->
  ?trials:int ->
  ?quantum:float ->
  ?seed:int ->
  unit ->
  Report.t
(** The million-member acceptance workload: same code path and report
    shape as {!run_sharded}, defaulting to one 1024 x 1024 cell (2^20
    members) with a lighter message load. The registry's quick variant
    scales the cell down without changing the code path. *)

val region_overhead : ?probe_regions:int -> ?regions:int -> ?cap:int -> unit -> float * float
(** [(words_per_region, schedules_per_region)]: marginal per-region
    fixed overhead of the sharded session, measured by differencing a
    [probe_regions]-region and a [regions]-region build (size-1
    regions, session ticker off, shards = 1) — heap words allocated by
    {!Rrmp.Sharded.create} and Sim schedules to drain one full-reach
    multicast, per additional region. The bench gates this against the
    spine budget. Runs the simulation twice; single-domain only. *)

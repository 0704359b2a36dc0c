(* Region-sharded protocol driver (see the .mli for the architecture).

   Per-shard event spine: a shard owns ONE Sim, ONE struct-of-arrays
   member arena (with its built-in barrier-driven deadline ring), ONE
   metrics registry / observer pair, ONE recovery table and record
   pool, and one fabric outbox block — shared by every region assigned
   to it. A region is not an object: it is an integer index into flat
   session-level arrays (size, base, parent, hops, recovery counters),
   and its members are a contiguous slice of the shard arena. Intra-
   shard dispatch is therefore one array index — the arena handle
   [g = global_member_id - shard_base] — instead of a per-region
   closure environment, which is what takes per-region fixed overhead
   from hundreds of words (own Sim-scheduled ring sweeps, own tables)
   to a handful and puts 10^6 members in reach.

   Concurrency story: every region lives on exactly one shard, and a
   shard's spine is touched only by the domain running that shard's
   window (Engine.Shard hands each shard to one worker at a time).
   The session-level per-region arrays are written at distinct indices
   by the owning shard's domain only, and read by the coordinator
   after the Pool completion barrier. Cross-region messages never call
   into another shard's spine directly — they are posted to the fabric
   from the sending shard's domain and injected by the coordinator
   between windows — so no lock is needed anywhere. Determinism: all
   randomness comes from per-region substreams split per member, all
   cross-region traffic is quantized through the barrier, ring sweeps
   run at the same barrier clocks for every shard count, and float
   statistics accumulate per region and fold in region order. *)

module Sim = Engine.Sim
module Rng = Engine.Rng
module Fabric = Netsim.Fabric
module Metrics = Tracing.Metrics
module Msg_id = Protocol.Msg_id

(* The sharded wire protocol. A single source with bounded in-order
   sequence numbers means a seq *is* the message body: repairs carry
   the seq alone and payload bodies are never materialized, which is
   what lets 10^6 members run without per-packet allocation. Messages
   are bit-packed into an immediate int —

     bits 0-1   tag (0 Data, 1 Session, 2 Remote_request, 3 Remote_repair)
     bits 2-21  seq (Data/Remote_*: the sequence number; Session: max seq)
     bits 22-41 origin region   (Remote_request only)
     bits 42-61 origin member   (Remote_request only)

   — so a parcel is never a heap object and dispatch is two bit ops. *)
type msg = int

let field_bits = 20

let field_mask = (1 lsl field_bits) - 1

let msg_data seq = seq lsl 2

let msg_session max_seq = (max_seq lsl 2) lor 1

let msg_remote_request ~seq ~origin_region ~origin_member =
  (origin_member lsl (2 + (2 * field_bits)))
  lor (origin_region lsl (2 + field_bits))
  lor (seq lsl 2)
  lor 2

let msg_remote_repair seq = (seq lsl 2) lor 3

let[@inline] msg_seq m = (m lsr 2) land field_mask

let[@inline] msg_origin_region m = (m lsr (2 + field_bits)) land field_mask

let[@inline] msg_origin_member m = (m lsr (2 + (2 * field_bits))) land field_mask

(* recovery table keyed by the packed (arena handle, seq) int: identity
   is a perfect hash (functor-made, per the D3 rule) *)
module Key_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k = k land max_int
end)

(* Recovery records are pooled per shard (a free list threaded through
   [next_free], terminated by the [rec_nil] sentinel) and their retry
   thunks are allocated once per record: re-arming a retry timer costs
   only the Sim schedule, never a fresh closure or [Some] box — timers
   use [Sim.never] as the "not armed" value. [key] packs (handle, seq)
   so the thunks recover their target from the record itself. *)
type recovery = {
  mutable key : int;  (* g * cap + seq while active; negative when free *)
  mutable detected_at : float;
  mutable local_timer : Sim.handle;
  mutable remote_timer : Sim.handle;
  mutable local_tries : int;
  mutable remote_tries : int;
  mutable next_free : recovery;
  mutable local_thunk : unit -> unit;
  mutable remote_thunk : unit -> unit;
}

let rec_nil =
  let rec r =
    {
      key = -2;
      detected_at = 0.0;
      local_timer = Sim.never;
      remote_timer = Sim.never;
      local_tries = 0;
      remote_tries = 0;
      next_free = r;
      local_thunk = ignore;
      remote_thunk = ignore;
    }
  in
  r

(* the per-shard event spine: everything a shard owns, shared by all
   of its regions. [m_base] anchors the arena: arena handle g <->
   global member id [m_base + g], and node ids are global member ids,
   so a handle alone recovers node, region and region-local index. *)
type spine = {
  sim : Sim.t;
  metrics : Metrics.t;
  mh_delivered : Metrics.handle;
  mh_touches : Metrics.handle;
  mh_discarded : Metrics.handle;
  observer : Events.observer option;
  observing : bool;
  m_base : int;  (* global member id of arena handle 0 *)
  m_count : int;  (* members in this shard's arena *)
  soa : Member_soa.t;  (* ONE arena for every region of the shard *)
  rngs : Rng.t array;  (* one generator per member, indexed by handle *)
  recoveries : recovery Key_tbl.t;
      (* keyed g*cap+seq; only ever indexed, never iterated *)
  mutable free_rec : recovery;  (* pool of finished recovery records *)
}

type t = {
  config : Config.t;
  quantum : float;
  intra : float;
  inter : float;
  local_retry : float;
  remote_retry : float;
  cap : int;
  total : int;
  nregions : int;
  (* region state, struct-of-arrays: a region is an index, not an
     object. All fixed per-region cost lives in these flat rows. *)
  r_shard : int array;
  r_size : int array;
  r_base : int array;  (* global id of region member 0 *)
  r_parent : int array;  (* parent region, -1 for the sender's *)
  r_hops : int array;  (* hop distance from the sender's region *)
  r_recovered : int array;
  r_latency_sum : float array;
      (* accumulated in region event order (shard-invariant), folded in
         region order: float determinism across shard counts *)
  member_region : int array;  (* global member id -> region *)
  spines : spine array;
  fabric : msg Fabric.t;
  scratch : int array;  (* multicast reach scan, sized max region *)
  iota : int array;  (* [|0; 1; ...|]: the shared everyone-fanout dsts *)
  sender_node : Node_id.t;
  mutable next_seq : int;
  mutable session_on : bool;
}

let regions t = t.nregions

let shards t = Array.length t.spines

let size t = t.total

let sender_sim t = t.spines.(t.r_shard.(0)).sim

let[@inline] id_of t seq = Msg_id.make ~source:t.sender_node ~seq

(* arena handle of region [r]'s member [m] on the region's spine *)
let[@inline] handle_of t sp r m = t.r_base.(r) + m - sp.m_base

let[@inline] region_of t sp g = t.member_region.(sp.m_base + g)

let emit sp g event =
  match sp.observer with
  | None -> ()
  | Some f -> f ~time:(Sim.now sp.sim) ~self:(Node_id.of_int (sp.m_base + g)) event

let tries_exhausted t tries =
  match t.config.Config.max_recovery_tries with
  | None -> false
  | Some m -> tries >= m

(* [find]-with-exception: every delivery probes the recovery table and
   the overwhelmingly common miss must not pay a [Some] box *)
let finish_recovery t sp g seq =
  let k = (g * t.cap) + seq in
  match Key_tbl.find sp.recoveries k with
  | exception Not_found -> ()
  | r ->
    Sim.cancel r.local_timer;
    Sim.cancel r.remote_timer;
    Key_tbl.remove sp.recoveries k;
    let latency = Sim.now sp.sim -. r.detected_at in
    let region = region_of t sp g in
    t.r_recovered.(region) <- t.r_recovered.(region) + 1;
    t.r_latency_sum.(region) <- t.r_latency_sum.(region) +. latency;
    if sp.observing then
      emit sp g (Events.Recovered { id = id_of t seq; latency; local_tries = r.local_tries });
    (* recycle: the cancelled timers can never fire the thunks again *)
    r.key <- -1;
    r.local_timer <- Sim.never;
    r.remote_timer <- Sim.never;
    r.next_free <- sp.free_rec;
    sp.free_rec <- r

(* ------------------------------------------------------------------ *)
(* Receive / recovery machine                                          *)
(* ------------------------------------------------------------------ *)

(* first delivery of [seq]'s body to arena handle [g] (receipt bit
   already set by the caller via note_data / note_repaired) *)
let rec accept t sp g seq ~via =
  let now = Sim.now sp.sim in
  finish_recovery t sp g seq;
  sp.mh_delivered := !(sp.mh_delivered) + 1;
  Member_soa.note_delivery sp.soa g;
  if sp.observing then emit sp g (Events.Delivered { id = id_of t seq; via });
  if Member_soa.insert_short sp.soa g seq ~now then
    if sp.observing then
      emit sp g (Events.Buffered { id = id_of t seq; phase = Buffer.Short_term })

and start_recovery t sp g seq =
  let k = (g * t.cap) + seq in
  if (not (Key_tbl.mem sp.recoveries k)) && not (Member_soa.received sp.soa g seq) then begin
    if sp.observing then emit sp g (Events.Loss_detected (id_of t seq));
    let r = alloc_recovery t sp in
    r.key <- k;
    r.detected_at <- Sim.now sp.sim;
    r.local_tries <- 0;
    r.remote_tries <- 0;
    Key_tbl.add sp.recoveries k r;
    local_round t sp r;
    remote_round t sp r
  end

(* pop a pooled record, or make a fresh one whose retry thunks are tied
   to it for life — rounds re-arm by rescheduling the same closure *)
and alloc_recovery t sp =
  let r = sp.free_rec in
  if r == rec_nil then begin
    let r =
      {
        key = -1;
        detected_at = 0.0;
        local_timer = Sim.never;
        remote_timer = Sim.never;
        local_tries = 0;
        remote_tries = 0;
        next_free = rec_nil;
        local_thunk = ignore;
        remote_thunk = ignore;
      }
    in
    r.local_thunk <- (fun () -> local_round t sp r);
    r.remote_thunk <- (fun () -> remote_round t sp r);
    r
  end
  else begin
    sp.free_rec <- r.next_free;
    r.next_free <- rec_nil;
    r
  end

(* one local round: probe a uniformly random other region member, arm
   the retry timer (armed even when alone, exactly like Member) *)
and local_round t sp r =
  if not (tries_exhausted t r.local_tries) then begin
    let g = r.key / t.cap in
    let seq = r.key - (g * t.cap) in
    let region = region_of t sp g in
    let rsize = t.r_size.(region) in
    if rsize > 1 then begin
      let m = sp.m_base + g - t.r_base.(region) in
      let j = Rng.int sp.rngs.(g) (rsize - 1) in
      let j = if j >= m then j + 1 else j in
      r.local_tries <- r.local_tries + 1;
      ignore
        (Sim.schedule sp.sim ~delay:t.intra (fun () ->
             handle_local_request t sp (g - m + j) seq ~origin:g))
    end;
    r.local_timer <- Sim.schedule sp.sim ~delay:t.local_retry r.local_thunk
  end

(* one remote round: with probability lambda/n ask a random parent-region
   member through the fabric; the timer is armed regardless *)
and remote_round t sp r =
  let g = r.key / t.cap in
  let region = region_of t sp g in
  let parent = t.r_parent.(region) in
  if parent >= 0 && not (tries_exhausted t r.remote_tries) then begin
    let seq = r.key - (g * t.cap) in
    let p = Float.min 1.0 (t.config.Config.lambda /. float_of_int t.r_size.(region)) in
    r.remote_tries <- r.remote_tries + 1;
    if Rng.bernoulli sp.rngs.(g) ~p then begin
      let pm = Rng.int sp.rngs.(g) t.r_size.(parent) in
      Fabric.unicast t.fabric ~src_region:region ~dst_region:parent ~dst_member:pm
        ~arrival:(Sim.now sp.sim +. t.intra +. t.inter)
        (msg_remote_request ~seq ~origin_region:region
           ~origin_member:(sp.m_base + g - t.r_base.(region)))
    end;
    r.remote_timer <- Sim.schedule sp.sim ~delay:t.remote_retry r.remote_thunk
  end

(* a region neighbour asked [g] for [seq]; a bufferer touches the entry
   (feedback) and replies, anyone else ignores it — the requester's
   timer probes someone else (the paper's local phase) *)
and handle_local_request t sp g seq ~origin =
  if Member_soa.buffered sp.soa g seq then begin
    sp.mh_touches := !(sp.mh_touches) + 1;
    Member_soa.touch sp.soa g seq ~now:(Sim.now sp.sim);
    ignore
      (Sim.schedule sp.sim ~delay:t.intra (fun () ->
           handle_repair t sp origin seq ~remote:false))
  end

and handle_repair t sp g seq ~remote =
  if Member_soa.note_repaired sp.soa g seq then begin
    accept t sp g seq ~via:`Repair;
    (* a repair from a remote region is re-multicast locally so
       neighbours sharing the loss receive it (Section 2.2) *)
    if remote then
      ignore (Sim.schedule sp.sim ~delay:t.intra (fun () -> regional_sweep t sp g seq))
  end
  else begin
    (* duplicate repair: feedback only *)
    sp.mh_touches := !(sp.mh_touches) + 1;
    Member_soa.touch sp.soa g seq ~now:(Sim.now sp.sim)
  end

(* one coalesced event delivering the regional re-multicast of [seq] to
   every member of [g0]'s region but [g0] itself, in member order *)
and regional_sweep t sp g0 seq =
  let region = region_of t sp g0 in
  let gfirst = t.r_base.(region) - sp.m_base in
  (* one boxed read of the clock for the whole sweep, not one per touch *)
  let now = Sim.now sp.sim in
  for g = gfirst to gfirst + t.r_size.(region) - 1 do
    if g <> g0 then
      if Member_soa.note_repaired sp.soa g seq then accept t sp g seq ~via:`Regional
      else begin
        sp.mh_touches := !(sp.mh_touches) + 1;
        Member_soa.touch sp.soa g seq ~now
      end
  done

and handle_data t sp g seq =
  (* gap detection reports into the spine's create-time [on_gap]
     callback (-> start_recovery): no closure on the deliver path *)
  if Member_soa.note_data sp.soa g seq then accept t sp g seq ~via:`Multicast

(* a session advertisement (or learning a seq exists from a request
   about it) can reveal losses we hadn't detected yet *)
let deliver_session sp g max_seq = Member_soa.note_session sp.soa g ~max_seq

(* Section 3.3's cases, bounded for the scale path: a bufferer touches
   and replies; a member that never received the seq records the loss
   for itself (the origin's own timer retries); a member that received
   and discarded stays silent — no region-wide search at 10^6 scale *)
let handle_remote_request t sp g ~seq ~origin_region ~origin_member =
  if Member_soa.buffered sp.soa g seq then begin
    let now = Sim.now sp.sim in
    sp.mh_touches := !(sp.mh_touches) + 1;
    Member_soa.touch sp.soa g seq ~now;
    Fabric.unicast t.fabric
      ~src_region:(region_of t sp g)
      ~dst_region:origin_region ~dst_member:origin_member
      ~arrival:(now +. t.intra +. t.inter)
      (msg_remote_repair seq)
  end
  else if not (Member_soa.received sp.soa g seq) then deliver_session sp g seq

let handle_parcel t region member msg =
  let sp = t.spines.(t.r_shard.(region)) in
  let g = t.r_base.(region) + member - sp.m_base in
  match msg land 3 with
  | 0 -> handle_data t sp g (msg_seq msg)
  | 1 -> deliver_session sp g (msg_seq msg)
  | 2 ->
    handle_remote_request t sp g ~seq:(msg_seq msg)
      ~origin_region:(msg_origin_region msg) ~origin_member:(msg_origin_member msg)
  | _ -> handle_repair t sp g (msg_seq msg) ~remote:true

(* ------------------------------------------------------------------ *)
(* Idle / lifetime deadlines (the two-phase policy over the SoA ring)   *)
(* ------------------------------------------------------------------ *)

let idle_decision t sp ~g ~seq =
  let now = Sim.now sp.sim in
  let region = region_of t sp g in
  let rsize = t.r_size.(region) in
  let c = t.config.Config.expected_bufferers in
  let keeps =
    match t.config.Config.selection with
    | Config.Randomized -> Long_term.decide sp.rngs.(g) ~c ~n:rsize
    | Config.Hashed ->
      Long_term.hashed_decide
        ~node:(Node_id.of_int (sp.m_base + g))
        ~id:(id_of t seq) ~c ~n:rsize
  in
  if keeps then begin
    if Member_soa.promote_long sp.soa g seq ~now then
      if sp.observing then emit sp g (Events.Promoted_long_term (id_of t seq))
  end
  else if Member_soa.drop sp.soa g seq ~now then
    sp.mh_discarded := !(sp.mh_discarded) + 1

(* a key's one deadline passed: the idle threshold while short-term,
   the lifetime once long-term *)
let expire t sp ~g ~seq =
  if not (Member_soa.long_term sp.soa g seq) then idle_decision t sp ~g ~seq
  else if Member_soa.drop sp.soa g seq ~now:(Sim.now sp.sim) then
    sp.mh_discarded := !(sp.mh_discarded) + 1

(* ------------------------------------------------------------------ *)
(* Sender: multicast and session fan-out                               *)
(* ------------------------------------------------------------------ *)

(* session ticker, started on first multicast when configured; remote
   regions get one fabric fanout each, the sender's own region one
   coalesced local event *)
let rec session_tick t interval =
  let sp = t.spines.(t.r_shard.(0)) in
  if t.next_seq > 0 then begin
    let max_seq = t.next_seq - 1 in
    let now = Sim.now sp.sim in
    let size0 = t.r_size.(0) in
    if size0 > 1 then
      ignore
        (Sim.schedule sp.sim ~delay:t.intra (fun () ->
             let gfirst = handle_of t sp 0 0 in
             for g = gfirst + 1 to gfirst + size0 - 1 do
               deliver_session sp g max_seq
             done));
    for r = 1 to t.nregions - 1 do
      (* the shared iota array: the fabric only reads dsts, so all
         session parcels can alias the one everyone-array *)
      Fabric.fanout t.fabric ~src_region:0 ~dst_region:r
        ~arrival:(now +. t.intra +. (float_of_int t.r_hops.(r) *. t.inter))
        ~dsts:t.iota ~n:t.r_size.(r) (msg_session max_seq)
    done
  end;
  ignore (Sim.schedule sp.sim ~delay:interval (fun () -> session_tick t interval))

let ensure_sessions t =
  if not t.session_on then
    match t.config.Config.session_interval with
    | None -> ()
    | Some interval ->
      t.session_on <- true;
      ignore
        (Sim.schedule t.spines.(t.r_shard.(0)).sim ~delay:interval (fun () ->
             session_tick t interval))

let multicast t ~reach =
  if t.next_seq >= t.cap then invalid_arg "Sharded.multicast: sequence capacity exhausted";
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  ensure_sessions t;
  let sp = t.spines.(t.r_shard.(0)) in
  let now = Sim.now sp.sim in
  let g0 = handle_of t sp 0 0 in
  (* the sender's own copy: bookkeeping without a Delivered event,
     mirroring Member.own_send_bookkeeping (the sender sends in seq
     order, so its note_data can never detect a gap) *)
  ignore (Member_soa.note_data sp.soa g0 seq);
  sp.mh_delivered := !(sp.mh_delivered) + 1;
  Member_soa.note_delivery sp.soa g0;
  if Member_soa.insert_short sp.soa g0 seq ~now then
    if sp.observing then
      emit sp g0 (Events.Buffered { id = id_of t seq; phase = Buffer.Short_term });
  (* fan out, consulting [reach] in (region, member) order; the local
     region is one coalesced event, every other region one parcel *)
  for r = 0 to t.nregions - 1 do
    let cnt = ref 0 in
    let first = if r = 0 then 1 else 0 in
    for m = first to t.r_size.(r) - 1 do
      if reach ~region:r ~member:m then begin
        t.scratch.(!cnt) <- m;
        incr cnt
      end
    done;
    if !cnt > 0 then begin
      if r = 0 then begin
        (* the local coalesced event needs the reach set to survive
           until it fires, so it gets its own copy; remote regions reuse
           [scratch] directly — the fabric copies into pooled storage *)
        let dsts = Array.sub t.scratch 0 !cnt in
        ignore
          (Sim.schedule sp.sim ~delay:t.intra (fun () ->
               Array.iter (fun m -> handle_data t sp (g0 + m) seq) dsts))
      end
      else
        Fabric.fanout t.fabric ~src_region:0 ~dst_region:r
          ~arrival:(now +. t.intra +. (float_of_int t.r_hops.(r) *. t.inter))
          ~dsts:t.scratch ~n:!cnt (msg_data seq)
    end
  done

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let max_shards = 128

(* placeholder generator for pre-sizing the per-spine rng arrays; every
   slot is overwritten during construction before use *)
let rng_dummy = Engine.Rng.create ~seed:0

let create ~seed ~config ~sizes ~parents ~shards ~cap ?(intra_ms = 5.0) ?(inter_ms = 50.0)
    ?observer () =
  (match Config.validate config with
   | Ok () -> ()
   | Error _ -> invalid_arg "Sharded.create: invalid config");
  let nregions = Array.length sizes in
  if nregions = 0 then invalid_arg "Sharded.create: at least one region required";
  if Array.length parents <> nregions then
    invalid_arg "Sharded.create: sizes and parents must have the same length";
  if parents.(0) <> -1 then invalid_arg "Sharded.create: region 0 must be the root (parent -1)";
  for r = 1 to nregions - 1 do
    if parents.(r) < 0 || parents.(r) >= r then
      invalid_arg "Sharded.create: parents must be topologically ordered toward region 0"
  done;
  Array.iter
    (fun s -> if s <= 0 then invalid_arg "Sharded.create: region sizes must be positive")
    sizes;
  if cap <= 0 then invalid_arg "Sharded.create: cap must be positive";
  (* the wire protocol bit-packs seq, origin region and origin member
     into 20-bit fields: oversized configurations must fail loudly
     here, not alias on the wire *)
  if cap > 1 lsl field_bits then
    invalid_arg "Sharded.create: cap exceeds the packed wire seq field";
  if nregions > 1 lsl field_bits then
    invalid_arg "Sharded.create: region count exceeds the packed wire field";
  Array.iter
    (fun s ->
      if s > 1 lsl field_bits then
        invalid_arg "Sharded.create: region size exceeds the packed wire field")
    sizes;
  if shards < 1 || shards > max_shards then
    invalid_arg "Sharded.create: shards must be in [1, 128]";
  let quantum = config.Config.deadline_quantum in
  if quantum <= 0.0 then
    invalid_arg "Sharded.create: config.deadline_quantum must be positive";
  if intra_ms <= 0.0 || inter_ms <= 0.0 then
    invalid_arg "Sharded.create: latencies must be positive";
  if intra_ms +. inter_ms < quantum then
    invalid_arg "Sharded.create: intra_ms + inter_ms must cover one deadline quantum";
  (* contiguous block partition: shard s owns regions [s*R/S, (s+1)*R/S)
     — a shard may own zero regions when shards > regions, and its
     spine is then an empty arena that stays quiescent *)
  let r_shard = Array.make nregions 0 in
  for s = 0 to shards - 1 do
    let lo = s * nregions / shards and hi = (s + 1) * nregions / shards in
    for r = lo to hi - 1 do
      r_shard.(r) <- s
    done
  done;
  let r_hops = Array.make nregions 0 in
  for r = 1 to nregions - 1 do
    r_hops.(r) <- r_hops.(parents.(r)) + 1
  done;
  let r_base = Array.make nregions 0 in
  let total = ref 0 in
  for r = 0 to nregions - 1 do
    r_base.(r) <- !total;
    total := !total + sizes.(r)
  done;
  let total = !total in
  let member_region = Array.make total 0 in
  for r = 0 to nregions - 1 do
    Array.fill member_region r_base.(r) sizes.(r) r
  done;
  let idle_timeout =
    match config.Config.idle_rounds with
    | Some rounds -> rounds *. (2.0 *. intra_ms)
    | None -> config.Config.idle_threshold
  in
  (* the fabric's deliver callback and the per-spine deadline callbacks
     close over [t] through this cell; they only ever fire from inside
     event loops, long after [create] returns *)
  let t_cell = ref None in
  let get_t () = match !t_cell with Some t -> t | None -> assert false in
  let make_spine s =
    let lo = s * nregions / shards and hi = (s + 1) * nregions / shards in
    let m_base = if lo < hi then r_base.(lo) else 0 in
    let m_count = ref 0 in
    for r = lo to hi - 1 do
      m_count := !m_count + sizes.(r)
    done;
    let m_count = !m_count in
    let metrics = Metrics.create () in
    let obs = match observer with None -> None | Some f -> f s in
    (* the spine keeps its mass deadlines in the arena's
       barrier-driven ring, so this Sim queue holds only recovery
       timers and parcel arrivals *)
    let sim = Sim.create () in
    let soa =
      Member_soa.create ~now:(Sim.now sim) ~n:m_count ~cap ~quantum ~idle_timeout
        ~lifetime:config.Config.long_term_lifetime
        ~on_expire:(fun ~member ~seq ->
          let t = get_t () in
          expire t t.spines.(s) ~g:member ~seq)
        ~on_gap:(fun ~member ~seq ->
          let t = get_t () in
          start_recovery t t.spines.(s) member seq)
        ()
    in
    (* region streams are substreams of the seed indexed by region id —
       independent of the region-to-shard assignment — and member
       generators are split from them in member order; the flat
       per-spine array keeps handle indexing one load *)
    let rngs = if m_count = 0 then [||] else Array.make m_count rng_dummy in
    let g = ref 0 in
    for r = lo to hi - 1 do
      let rng0 = Rng.substream ~seed ~index:r in
      for _m = 0 to sizes.(r) - 1 do
        rngs.(!g) <- Rng.split rng0;
        incr g
      done
    done;
    {
      sim;
      metrics;
      mh_delivered = Metrics.handle metrics "rrmp.delivered";
      mh_touches = Metrics.handle metrics "rrmp.feedback_touches";
      mh_discarded = Metrics.handle metrics "rrmp.discarded";
      observer = obs;
      observing = obs <> None;
      m_base;
      m_count;
      soa;
      rngs;
      recoveries = Key_tbl.create 16;
      free_rec = rec_nil;
    }
  in
  let spines = Array.make shards (make_spine 0) in
  for s = 1 to shards - 1 do
    spines.(s) <- make_spine s
  done;
  let max_size = Array.fold_left (fun acc s -> if s > acc then s else acc) 0 sizes in
  let fabric =
    Fabric.create ~regions:nregions ~shards
      ~shard_of:(fun r -> r_shard.(r))
      ~sim_of:(fun r -> spines.(r_shard.(r)).sim)
      ~deliver:(fun ~region ~member msg -> handle_parcel (get_t ()) region member msg)
  in
  let rtt = 2.0 *. intra_ms in
  let t =
    {
      config;
      quantum;
      intra = intra_ms;
      inter = inter_ms;
      local_retry = Float.max config.Config.min_timer (config.Config.rtt_multiplier *. rtt);
      remote_retry =
        Float.max config.Config.min_timer
          (config.Config.rtt_multiplier *. (2.0 *. (intra_ms +. inter_ms)));
      cap;
      total;
      nregions;
      r_shard;
      r_size = Array.copy sizes;
      r_base;
      r_parent = Array.copy parents;
      r_hops;
      r_recovered = Array.make nregions 0;
      r_latency_sum = Array.make nregions 0.0;
      member_region;
      spines;
      fabric;
      scratch = Array.make max_size 0;
      iota = Array.init max_size (fun i -> i);
      sender_node = Node_id.of_int 0;
      next_seq = 0;
      session_on = false;
    }
  in
  t_cell := Some t;
  t

(* ------------------------------------------------------------------ *)
(* Driving and reading out                                             *)
(* ------------------------------------------------------------------ *)

let run t ~until =
  let nsh = Array.length t.spines in
  let sims = Array.make nsh t.spines.(0).sim in
  for s = 1 to nsh - 1 do
    sims.(s) <- t.spines.(s).sim
  done;
  Engine.Shard.run ~sims
    ~on_window:(fun ~shard ~barrier ->
      (* the shard's clock sits exactly at [barrier], so deadlines due
         at tick = floor(barrier / quantum) fire at the same virtual
         time the Sim-scheduled sweeps would have run them; the barrier
         sequence is the same for every shard count, so sweep timing is
         shard-invariant *)
      Member_soa.sweep_until t.spines.(shard).soa
        ~tick:(int_of_float (Float.floor ((barrier /. t.quantum) +. 1e-9))))
    ~busy:(fun s -> Member_soa.deadlines_pending t.spines.(s).soa)
    ~quantum:t.quantum ~until
    ~exchange:(fun ~barrier -> Fabric.exchange t.fabric ~barrier)
    ();
  Array.iter (fun sp -> Member_soa.settle_all sp.soa ~now:until) t.spines

(* spine folds visit members in ascending global id — which is
   ascending (region, member) order, the same fold order as a
   per-region walk, so float sums are bit-identical across shard
   counts *)
let delivered_total t =
  let sum = ref 0 in
  Array.iter
    (fun sp ->
      for g = 0 to sp.m_count - 1 do
        sum := !sum + Member_soa.deliveries sp.soa g
      done)
    t.spines;
  !sum

let touches_total t =
  Array.fold_left
    (fun acc sp -> acc + Metrics.counter sp.metrics "rrmp.feedback_touches")
    0 t.spines

let recovered_total t = Array.fold_left ( + ) 0 t.r_recovered

let recovery_latency_sum t = Array.fold_left ( +. ) 0.0 t.r_latency_sum

let occupancy_msg_ms_total t =
  let sum = ref 0.0 in
  Array.iter
    (fun sp ->
      for g = 0 to sp.m_count - 1 do
        sum := !sum +. Member_soa.occupancy_msg_ms sp.soa g
      done)
    t.spines;
  !sum

let peak_buffered t =
  let peak = ref 0 in
  Array.iter
    (fun sp ->
      for g = 0 to sp.m_count - 1 do
        let p = Member_soa.peak_size sp.soa g in
        if p > !peak then peak := p
      done)
    t.spines;
  !peak

let sim_events t =
  Array.fold_left (fun acc sp -> acc + Sim.events_executed sp.sim) 0 t.spines

let sim_schedules t =
  Array.fold_left (fun acc sp -> acc + Sim.events_scheduled sp.sim) 0 t.spines

let cross_region_parcels t = Fabric.posted t.fabric

let long_term_bufferers t ~seq =
  Array.fold_left (fun acc sp -> acc + Member_soa.promotions_of_seq sp.soa seq) 0 t.spines

let shard_metrics t s = t.spines.(s).metrics

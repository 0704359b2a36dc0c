(* Per-path allocation gates.

   Every driver below stages its world — group, SoA arena, fabric,
   preallocated request records — outside the measured window, then
   runs the steady-state op in a tight loop between two
   [Gc.minor_words] probes. The probes themselves allocate (each call
   boxes a float), so that constant is sampled with an empty window
   first and subtracted; a path that allocates nothing then reads
   exactly 0.0 words/op, which is what the [exact] gates demand.

   The budgets here are the single source of truth: bench reports them
   (BENCH_alloc.json) and test/test_alloc_gates.ml asserts them, both
   through {!run}/{!failures}. *)

type result = {
  name : string;
  what : string;
  ops : int;
  minor_words_per_op : float;
  ns_per_op : float;
  budget : float;
  exact : bool;
}

(* words charged by the two Gc.minor_words calls bracketing an empty
   window: the float boxes of the probes themselves *)
let probe_overhead () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let[@lint.allow
     "D1 ns/op is informational wall-clock for the bench JSON only; gate verdicts and every \
      report read the words column, which is deterministic"] measure ~name ~what ~budget ~exact
    ~ops f =
  let overhead = probe_overhead () in
  let t0 = Sys.time () in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let t1 = Sys.time () in
  let total = float_of_int (max 1 ops) in
  let words = Float.max 0.0 (w1 -. w0 -. overhead) in
  {
    name;
    what;
    ops;
    minor_words_per_op = words /. total;
    ns_per_op = (t1 -. t0) *. 1e9 /. total;
    budget;
    exact;
  }

module Soa = Rrmp.Member_soa

let nop_cb ~member:_ ~seq:_ = ()

let make_soa ~n ~cap ?(on_gap = nop_cb) () =
  Soa.create ~now:0.0 ~n ~cap ~quantum:10.0 ~idle_timeout:1e9 ~lifetime:None ~on_expire:nop_cb
    ~on_gap ()

(* deliver: in-order receipt bookkeeping — gap check, short-term buffer
   insert with deadline arming, delivery accounting. The second half of
   the sequence space is measured after the first half has warmed every
   lazily-grown structure. *)
let run_deliver ~n ~k =
  let soa = make_soa ~n ~cap:(2 * k) () in
  let now = Sys.opaque_identity 0.0 in
  let deliver_range lo hi =
    for m = 0 to n - 1 do
      for s = lo to hi - 1 do
        ignore (Soa.note_data soa m s : bool);
        ignore (Soa.insert_short soa m s ~now : bool);
        Soa.note_delivery soa m
      done
    done
  in
  deliver_range 0 k;
  measure ~name:"alloc/deliver" ~what:"SoA in-order delivery: gap check + buffer insert + accounting"
    ~budget:0.0 ~exact:true ~ops:(n * k) (fun () -> deliver_range k (2 * k))

(* gap-note: a session advertisement reveals k fresh losses per member;
   each flows through the create-time on_gap callback. *)
let run_gap_note ~n ~k =
  let noted = ref 0 in
  let soa = make_soa ~n ~cap:(2 * k) ~on_gap:(fun ~member:_ ~seq:_ -> incr noted) () in
  for m = 0 to n - 1 do
    Soa.note_session soa m ~max_seq:(k - 1)
  done;
  let r =
    measure ~name:"alloc/gap-note" ~what:"session advertisement reveals losses via create-time on_gap"
      ~budget:1.0 ~exact:false ~ops:(n * k) (fun () ->
        for m = 0 to n - 1 do
          Soa.note_session soa m ~max_seq:((2 * k) - 1)
        done)
  in
  assert (!noted = 2 * n * k);
  r

(* deadline-touch: feedback pushes every armed idle deadline out; the
   ring re-buckets lazily, so a touch is O(1) field writes. *)
let run_deadline_touch ~n ~k ~rounds =
  let soa = make_soa ~n ~cap:k () in
  let now = Sys.opaque_identity 0.0 in
  for m = 0 to n - 1 do
    for s = 0 to k - 1 do
      ignore (Soa.insert_short soa m s ~now : bool)
    done
  done;
  measure ~name:"alloc/deadline-touch" ~what:"feedback touch re-arms a coalesced deadline in place"
    ~budget:1.0 ~exact:false
    ~ops:(n * k * rounds)
    (fun () ->
      for _ = 1 to rounds do
        for m = 0 to n - 1 do
          for s = 0 to k - 1 do
            Soa.touch soa m s ~now
          done
        done
      done)

(* regional-repair fan-out: batched cross-region parcels expand to
   per-member deliveries inside the destination shard's event loop.
   Posting and exchange pre-stage the parcels (Sim.schedule hands out a
   handle, so staging is not allocation-free and sits outside the
   window); the measured window is the firing itself — parcel
   expansion, delivery upcalls, slot recycling. *)
let run_regional_fanout ~regions ~per_region ~batches =
  let sims = Array.init regions (fun _ -> Engine.Sim.create ()) in
  let delivered = ref 0 in
  (* one slot pool: the gate measures a shard's own steady state —
     post pops the same free list fire recycles into. (With one pool
     per region and a send-only source, recycled slots would pile up
     at the receivers while the sender allocates fresh ones; in the
     sharded session that imbalance is amortized across the window
     traffic, but here it would put pool growth inside the measured
     drain.) *)
  let fabric =
    Netsim.Fabric.create ~regions ~shards:1 ~shard_of:(fun _ -> 0)
      ~sim_of:(fun r -> sims.(r))
      ~deliver:(fun ~region:_ ~member:_ () -> incr delivered)
  in
  let dsts = Array.init per_region Fun.id in
  let post ~arrival =
    for r = 1 to regions - 1 do
      Netsim.Fabric.fanout fabric ~src_region:0 ~dst_region:r ~arrival ~dsts ()
    done
  in
  let drain () = Array.iter (fun s -> Engine.Sim.run s) sims in
  (* warm rounds at the full batch count: slot pools, free lists and
     destination buffers must be grown to the measured population
     before the window opens *)
  for b = 0 to batches - 1 do
    post ~arrival:(10.0 +. (10.0 *. float_of_int b))
  done;
  ignore (Netsim.Fabric.exchange fabric ~barrier:10.0 : int);
  drain ();
  let warm = 10.0 +. (10.0 *. float_of_int batches) in
  for b = 0 to batches - 1 do
    post ~arrival:(warm +. (10.0 *. float_of_int b))
  done;
  ignore (Netsim.Fabric.exchange fabric ~barrier:warm : int);
  let ops = batches * (regions - 1) * per_region in
  let r =
    measure ~name:"alloc/regional-fanout"
      ~what:"staged fabric parcels fire: expansion + delivery + slot recycle" ~budget:0.0
      ~exact:true ~ops drain
  in
  assert (!delivered = 2 * ops);
  r

(* sim-schedule: what one Sim event costs. Each round files [k] events
   in one multi-entry level-0 bucket (merge-sorted when the cursor
   drains it), [k] in a coarse slot (moved down as the windows turn)
   and, from an action, [k] behind the cursor (inserted into the ready
   chain), then drains. Every action is preallocated and every delay
   boxed once, so the window charges the handles alone: the record and
   its boxed fire time. *)
let run_sim_schedule ~rounds ~k =
  let sim = Engine.Sim.create () in
  let near = Sys.opaque_identity 5.0 in
  let coarse = Sys.opaque_identity 1000.0 in
  let zero = Sys.opaque_identity 0.0 in
  let action () = () in
  let behind () =
    for _ = 1 to k do
      ignore (Engine.Sim.schedule sim ~delay:zero action : Engine.Sim.handle)
    done
  in
  let round () =
    for _ = 1 to k do
      ignore (Engine.Sim.schedule sim ~delay:near action : Engine.Sim.handle);
      ignore (Engine.Sim.schedule sim ~delay:coarse action : Engine.Sim.handle)
    done;
    ignore (Engine.Sim.schedule sim ~delay:near behind : Engine.Sim.handle);
    Engine.Sim.run sim
  in
  round ();
  let r =
    measure ~name:"alloc/sim-schedule"
      ~what:"schedule into a shared level-0 bucket, a coarse slot and behind the cursor; drain"
      ~budget:9.0 ~exact:false
      ~ops:(rounds * ((3 * k) + 1))
      (fun () ->
        for _ = 1 to rounds do
          round ()
        done)
  in
  assert (Engine.Sim.events_executed sim = (rounds + 1) * ((3 * k) + 1));
  r

(* The two repair-serving gates run the full record path: a
   preallocated request record is injected straight into the serving
   member (the pooled-delivery contract), the buffered payload is
   served in a fresh repair cell, and the pooled network delivers the
   repair. The cell, latency sampling, wheel scheduling and stats put
   these paths above zero by design; the budget documents the bound. *)

let repair_group ~topology =
  let group = Rrmp.Group.create ~seed:7 ~config:Rrmp.Config.default ~topology () in
  let id = Rrmp.Group.multicast group () in
  Rrmp.Group.run group;
  (group, id)

let run_repair ~name ~what ~budget ~topology ~request ~server_of ~ops =
  let group, id = repair_group ~topology in
  let server = server_of group in
  Rrmp.Member.force_buffer server ~phase:Rrmp.Buffer.Long_term (Rrmp.Payload.make id);
  let sim = Rrmp.Group.sim group in
  let msg = request group id in
  let req =
    {
      Netsim.Network.src = Rrmp.Member.node server;
      dst = Rrmp.Member.node server;
      msg;
      sent_at = Engine.Sim.now sim;
      cls = Rrmp.Wire.cls msg;
    }
  in
  let step () =
    Rrmp.Member.inject_delivery server req;
    Engine.Sim.run ~until:(Engine.Sim.now sim +. 60.0) sim
  in
  step ();
  step ();
  measure ~name ~what ~budget ~exact:false ~ops (fun () ->
      for _ = 1 to ops do
        step ()
      done)

let non_sender group members =
  let sender = Rrmp.Group.sender group in
  List.find (fun m -> m != sender) members

let run_local_repair ~ops =
  run_repair ~name:"alloc/local-repair"
    ~what:"serve a buffered payload to a regional requester (record path)" ~budget:48.0
    ~topology:(Topology.single_region ~size:8)
    ~request:(fun _group id -> Rrmp.Wire.Local_request id)
    ~server_of:(fun group -> non_sender group (Rrmp.Group.members group))
    ~ops

let run_remote_repair ~ops =
  run_repair ~name:"alloc/remote-repair"
    ~what:"serve a buffered payload to a remote region's requester (record path)" ~budget:64.0
    ~topology:(Topology.chain ~sizes:[ 4; 4 ])
    ~request:(fun group id ->
      let regions = Topology.regions (Rrmp.Group.topology group) in
      let far = List.nth regions 1 in
      let requester = List.hd (Rrmp.Group.members_of_region group far) in
      Rrmp.Wire.Remote_request { id; origin = Rrmp.Member.node requester })
    ~server_of:(fun group ->
      let regions = Topology.regions (Rrmp.Group.topology group) in
      non_sender group (Rrmp.Group.members_of_region group (List.hd regions)))
    ~ops

(* member-buffer: what one buffered message costs over its whole life
   on the classic path. A non-sender member of an 8-member region takes
   first Data deliveries through a preallocated record; the sim then
   runs past every idle deadline and past the lifetime of the ~C/n
   that stay long-term. The window charges the buffer entry with its
   deadline and action, the scheduler entries of the idle and lifetime
   deadlines, and the reception bookkeeping. A warm-up of as many
   messages grows the tables first. *)
let run_member_buffer ~msgs =
  let config = { Rrmp.Config.default with Rrmp.Config.long_term_lifetime = Some 1000.0 } in
  let group =
    Rrmp.Group.create ~seed:7 ~config ~topology:(Topology.single_region ~size:8) ()
  in
  let member = non_sender group (Rrmp.Group.members group) in
  let source = Rrmp.Member.node (Rrmp.Group.sender group) in
  let sim = Rrmp.Group.sim group in
  let wires =
    Array.init (2 * msgs) (fun seq ->
        Rrmp.Wire.Data (Rrmp.Payload.make ~size:64 (Protocol.Msg_id.make ~source ~seq)))
  in
  let d =
    {
      Netsim.Network.src = source;
      dst = Rrmp.Member.node member;
      msg = wires.(0);
      sent_at = 0.0;
      cls = Rrmp.Wire.cls wires.(0);
    }
  in
  let feed lo hi =
    for seq = lo to hi - 1 do
      d.msg <- wires.(seq);
      Rrmp.Member.inject_delivery member d
    done;
    Engine.Sim.run ~until:(Engine.Sim.now sim +. 2000.0) sim
  in
  feed 0 msgs;
  let r =
    measure ~name:"alloc/member-buffer"
      ~what:"buffer a first Data delivery through its idle deadline and long-term lifetime"
      ~budget:52.0 ~exact:false ~ops:msgs
      (fun () -> feed msgs (2 * msgs))
  in
  assert (Rrmp.Member.buffer_size member = 0);
  r

(* Codec gates: the per-datagram cost of the real-traffic backend.
   Encode writes one prebuilt 1 KiB Data frame into a preallocated
   buffer; decode revalidates those bytes through a pooled decoder via
   [Codec.read] — the status is a constant constructor and no [Wire.t]
   is materialized, exactly what [Udp_loopback.drain] does before
   deciding whether to hand a frame up. Both are ≤1.0-words/op gates
   (the codec stages nothing per op, but the bound leaves headroom for
   probe jitter rather than demanding exact zero on a path that
   crosses a Bigarray boundary). *)

let codec_frame () =
  let id = Protocol.Msg_id.make ~source:(Node_id.of_int 3) ~seq:17 in
  let msg = Rrmp.Wire.Data (Rrmp.Payload.make ~size:1024 id) in
  let size = Rrmp.Codec.encoded_size msg in
  let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
  ignore (Rrmp.Codec.encode buf ~off:0 msg : int);
  (msg, buf, size)

let run_codec_encode ~ops =
  let msg, buf, _ = codec_frame () in
  measure ~name:"alloc/codec-encode"
    ~what:"encode a 1 KiB Data frame into a preallocated wire buffer" ~budget:1.0 ~exact:false
    ~ops (fun () ->
      for _ = 1 to ops do
        ignore (Rrmp.Codec.encode buf ~off:0 msg : int)
      done)

let run_codec_decode ~ops =
  let _, buf, size = codec_frame () in
  let dec = Rrmp.Codec.create_decoder () in
  measure ~name:"alloc/codec-decode"
    ~what:"validate a 1 KiB Data frame through a pooled decoder (read, no materialization)"
    ~budget:1.0 ~exact:false ~ops (fun () ->
      for _ = 1 to ops do
        match Rrmp.Codec.read dec buf ~off:0 ~len:size with
        | Rrmp.Codec.Ok_frame -> ()
        | Rrmp.Codec.Err _ -> assert false
      done)

let run ?(quick = false) () =
  let d = if quick then 2 else 1 in
  [
    run_deliver ~n:(64 / d) ~k:128;
    run_gap_note ~n:(64 / d) ~k:128;
    run_local_repair ~ops:(512 / d);
    run_remote_repair ~ops:(256 / d);
    run_member_buffer ~msgs:(4096 / d);
    run_regional_fanout ~regions:4 ~per_region:256 ~batches:(8 / d);
    run_deadline_touch ~n:(64 / d) ~k:64 ~rounds:4;
    run_sim_schedule ~rounds:(64 / d) ~k:64;
    run_codec_encode ~ops:(100_000 / d);
    run_codec_decode ~ops:(100_000 / d);
  ]

let failures results =
  List.filter_map
    (fun r ->
      if r.exact && r.minor_words_per_op <> 0.0 then
        Some
          (Printf.sprintf "%s: %.3f minor words/op but the gate requires exactly 0.0" r.name
             r.minor_words_per_op)
      else if r.minor_words_per_op > r.budget then
        Some
          (Printf.sprintf "%s: %.3f minor words/op exceeds the %.1f budget" r.name
             r.minor_words_per_op r.budget)
      else None)
    results

let pp_result fmt r =
  Format.fprintf fmt "%-24s %9d ops  %8.3f words/op  (budget %5.1f%s)  %8.1f ns/op" r.name r.ops
    r.minor_words_per_op r.budget
    (if r.exact then ", exact" else "")
    r.ns_per_op

(* Behavioural tests for the RRMP protocol: error recovery, two-phase
   buffering, search, handoff, and the Group facade. *)

module Msg_id = Protocol.Msg_id
module Config = Rrmp.Config
module Payload = Rrmp.Payload
module Buffer = Rrmp.Buffer
module Long_term = Rrmp.Long_term
module Events = Rrmp.Events
module Member = Rrmp.Member
module Group = Rrmp.Group
module Network = Netsim.Network

let mid ?(source = 0) seq = Msg_id.make ~source:(Node_id.of_int source) ~seq

(* collect events from every member into one list *)
let event_collector () =
  let log = ref [] in
  let observer ~time ~self event = log := (time, self, event) :: !log in
  (log, observer)

let events_of log = List.rev_map (fun (_, _, e) -> e) !log

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_config_default_valid () =
  Alcotest.(check bool) "default validates" true (Config.validate Config.default = Ok ())

let test_config_rejects_bad_values () =
  let bad_t = { Config.default with Config.idle_threshold = 0.0 } in
  Alcotest.(check bool) "zero T rejected" true (Result.is_error (Config.validate bad_t));
  let bad_c = { Config.default with Config.expected_bufferers = -1.0 } in
  Alcotest.(check bool) "negative C rejected" true (Result.is_error (Config.validate bad_c));
  let bad_l = { Config.default with Config.lambda = -0.1 } in
  Alcotest.(check bool) "negative lambda rejected" true (Result.is_error (Config.validate bad_l));
  let bad_b = { Config.default with Config.regional_send = Config.Backoff { max_delay = 0.0 } } in
  Alcotest.(check bool) "zero backoff rejected" true (Result.is_error (Config.validate bad_b))

(* ------------------------------------------------------------------ *)
(* Long_term                                                           *)
(* ------------------------------------------------------------------ *)

let test_long_term_probability () =
  Alcotest.(check (float 1e-12)) "C/n" 0.06 (Long_term.probability ~c:6.0 ~n:100);
  Alcotest.(check (float 1e-12)) "clamped" 1.0 (Long_term.probability ~c:6.0 ~n:3);
  Alcotest.(check (float 1e-12)) "expected count" 6.0 (Long_term.expected_bufferers ~c:6.0 ~n:100)

let qcheck_long_term_mean =
  QCheck.Test.make ~name:"long-term bufferer count has mean ~C" ~count:5
    QCheck.(int_range 1 6)
    (fun c ->
      let rng = Engine.Rng.create ~seed:(100 + c) in
      let n = 200 and trials = 2000 in
      let total = ref 0 in
      for _ = 1 to trials do
        for _ = 1 to n do
          if Long_term.decide rng ~c:(float_of_int c) ~n then incr total
        done
      done;
      let mean = float_of_int !total /. float_of_int trials in
      abs_float (mean -. float_of_int c) < 0.25)

(* ------------------------------------------------------------------ *)
(* Buffer                                                              *)
(* ------------------------------------------------------------------ *)

let test_buffer_insert_find_remove () =
  let sim = Engine.Sim.create () in
  let b = Buffer.create ~sim in
  let p = Payload.make ~size:100 (mid 0) in
  let e = Buffer.insert b ~phase:Buffer.Short_term p in
  Alcotest.(check bool) "reinsert returns the entry" true
    (Buffer.insert b ~phase:Buffer.Long_term (Payload.make ~size:7 (mid 0)) == e);
  Alcotest.(check bool) "mem" true (Buffer.mem b (mid 0));
  Alcotest.(check bool) "find" true (Buffer.find b (mid 0) == e);
  Alcotest.(check bool) "same payload" true (Payload.equal (Buffer.payload e) p);
  Alcotest.(check int) "bytes" 100 (Buffer.bytes b);
  Alcotest.(check bool) "phase" true (Buffer.phase e = Buffer.Short_term);
  Buffer.promote b e;
  Alcotest.(check bool) "promoted" true (Buffer.phase e = Buffer.Long_term);
  Buffer.remove b e;
  Alcotest.(check int) "empty" 0 (Buffer.size b);
  Alcotest.(check int) "no bytes" 0 (Buffer.bytes b);
  Alcotest.(check bool) "find missing" true
    (match Buffer.find b (mid 0) with _ -> false | exception Not_found -> true)

let test_buffer_occupancy_integral () =
  let sim = Engine.Sim.create () in
  let b = Buffer.create ~sim in
  let insert seq = ignore (Buffer.insert b ~phase:Buffer.Short_term (Payload.make ~size:10 (mid seq))) in
  let remove seq = Buffer.remove b (Buffer.find b (mid seq)) in
  ignore (Sim_helpers.at sim 0.0 (fun () -> insert 0));
  ignore (Sim_helpers.at sim 10.0 (fun () -> insert 1));
  ignore (Sim_helpers.at sim 30.0 (fun () -> remove 0));
  ignore (Sim_helpers.at sim 50.0 (fun () -> remove 1));
  Engine.Sim.run sim;
  (* msg-ms: 1 msg for [0,10) + 2 for [10,30) + 1 for [30,50) = 10+40+20 = 70 *)
  Alcotest.(check (float 1e-6)) "msg-ms" 70.0 (Buffer.occupancy_msg_ms b);
  Alcotest.(check (float 1e-6)) "byte-ms" 700.0 (Buffer.occupancy_byte_ms b);
  Alcotest.(check int) "peak size" 2 (Buffer.peak_size b);
  Alcotest.(check int) "peak bytes" 20 (Buffer.peak_bytes b)

let test_buffer_long_term_payloads () =
  let sim = Engine.Sim.create () in
  let b = Buffer.create ~sim in
  ignore (Buffer.insert b ~phase:Buffer.Short_term (Payload.make (mid 0)));
  ignore (Buffer.insert b ~phase:Buffer.Long_term (Payload.make (mid 1)));
  ignore (Buffer.insert b ~phase:Buffer.Long_term (Payload.make (mid 2)));
  Alcotest.(check int) "short count" 1 (Buffer.count_phase b Buffer.Short_term);
  Alcotest.(check (list int)) "long-term ids" [ 1; 2 ]
    (List.map (fun p -> Msg_id.seq (Payload.id p)) (Buffer.long_term_payloads b))

(* the retention deadline an entry carries: it fires the buffer's
   expiry action once, feedback pushes it back, and removal disarms it *)
let test_buffer_deadline () =
  let sim = Engine.Sim.create () in
  let b = Buffer.create ~sim in
  let expired = ref [] in
  Buffer.set_on_expire b (fun e ->
      expired := (Msg_id.seq (Payload.id (Buffer.payload e)), Engine.Sim.now sim) :: !expired);
  let e0 = Buffer.insert b ~phase:Buffer.Short_term (Payload.make (mid 0)) in
  let e1 = Buffer.insert b ~phase:Buffer.Short_term (Payload.make (mid 1)) in
  let e2 = Buffer.insert b ~phase:Buffer.Short_term (Payload.make (mid 2)) in
  List.iter (fun e -> Buffer.arm b e ~timeout:10.0) [ e0; e1; e2 ];
  ignore (Sim_helpers.at sim 6.0 (fun () -> Buffer.touch b e1));
  ignore (Sim_helpers.at sim 8.0 (fun () -> Buffer.remove b e2));
  Engine.Sim.run sim;
  Alcotest.(check (list (pair int (float 1e-9)))) "expiries" [ (0, 10.0); (1, 16.0) ]
    (List.rev !expired);
  (* a promoted entry re-armed for its lifetime: a disarm wins *)
  Buffer.promote b e0;
  Buffer.arm b e0 ~timeout:100.0;
  Buffer.disarm e0;
  Engine.Sim.run sim;
  Alcotest.(check int) "disarmed never fires" 2 (List.length !expired);
  Alcotest.(check int) "long-term entry stays" 1 (Buffer.count_phase b Buffer.Long_term)

let test_buffer_phase_counters () =
  let sim = Engine.Sim.create () in
  let b = Buffer.create ~sim in
  let entries =
    Array.init 5 (fun seq -> Buffer.insert b ~phase:Buffer.Short_term (Payload.make (mid seq)))
  in
  ignore (Buffer.insert b ~phase:Buffer.Long_term (Payload.make (mid 5)));
  Alcotest.(check int) "short" 5 (Buffer.count_phase b Buffer.Short_term);
  Alcotest.(check int) "long" 1 (Buffer.count_phase b Buffer.Long_term);
  Buffer.promote b entries.(0);
  Buffer.promote b entries.(0);
  Alcotest.(check int) "short after promote" 4 (Buffer.count_phase b Buffer.Short_term);
  Alcotest.(check int) "long after (re-)promote" 2 (Buffer.count_phase b Buffer.Long_term);
  Buffer.remove b entries.(0);
  Buffer.remove b entries.(1);
  Alcotest.(check int) "short after removes" 3 (Buffer.count_phase b Buffer.Short_term);
  Alcotest.(check int) "long after removes" 1 (Buffer.count_phase b Buffer.Long_term);
  (* counters must always agree with a full scan *)
  let scan phase =
    Buffer.fold b ~init:0 (fun acc e -> if Buffer.phase e = phase then acc + 1 else acc)
  in
  Alcotest.(check int) "short matches scan" (scan Buffer.Short_term)
    (Buffer.count_phase b Buffer.Short_term);
  Alcotest.(check int) "long matches scan" (scan Buffer.Long_term)
    (Buffer.count_phase b Buffer.Long_term)

let test_buffer_iter_fold_match_contents () =
  let sim = Engine.Sim.create () in
  let b = Buffer.create ~sim in
  List.iter
    (fun (seq, phase) -> ignore (Buffer.insert b ~phase (Payload.make (mid seq))))
    [ (3, Buffer.Long_term); (0, Buffer.Short_term); (7, Buffer.Long_term); (1, Buffer.Short_term) ];
  let sort l = List.sort compare l in
  let via_contents =
    List.map (fun (p, phase) -> (Msg_id.seq (Payload.id p), phase)) (Buffer.contents b)
  in
  let view e = (Msg_id.seq (Payload.id (Buffer.payload e)), Buffer.phase e) in
  let via_fold = Buffer.fold b ~init:[] (fun acc e -> view e :: acc) in
  let via_iter = ref [] in
  Buffer.iter b (fun e -> via_iter := view e :: !via_iter);
  Alcotest.(check bool) "fold = contents" true (sort via_fold = sort via_contents);
  Alcotest.(check bool) "iter = contents" true (sort !via_iter = sort via_contents)

(* ------------------------------------------------------------------ *)
(* End-to-end delivery and recovery                                    *)
(* ------------------------------------------------------------------ *)

(* everything delivered when the initial multicast reaches everyone *)
let test_lossless_delivery () =
  let topology = Topology.single_region ~size:20 in
  let group = Group.create ~seed:2 ~topology () in
  let id = Group.multicast group () in
  Group.run group;
  Alcotest.(check bool) "all received" true (Group.received_by_all group id);
  Alcotest.(check int) "count" 20 (Group.count_received group id)

(* a single member missing the message recovers through local recovery *)
let test_local_recovery_single_loss () =
  let topology = Topology.single_region ~size:10 in
  let log, observer = event_collector () in
  let group = Group.create ~seed:3 ~observer ~topology () in
  let victim = Node_id.of_int 7 in
  let id =
    Group.multicast_reaching group ~reach:(fun n -> not (Node_id.equal n victim)) ()
  in
  (* the victim has no gap to observe with a single message: a session
     message reveals the loss *)
  Member.send_session (Group.sender group);
  Group.run group;
  Alcotest.(check bool) "victim recovered" true
    (Member.has_received (Group.member group victim) id);
  let recovered =
    List.exists (function Events.Recovered _ -> true | _ -> false) (events_of log)
  in
  Alcotest.(check bool) "recovery event emitted" true recovered

(* sequence gaps alone (no session message) reveal earlier losses *)
let test_gap_triggers_recovery () =
  let topology = Topology.single_region ~size:10 in
  let group = Group.create ~seed:4 ~topology () in
  let victim = Node_id.of_int 3 in
  let id0 =
    Group.multicast_reaching group ~reach:(fun n -> not (Node_id.equal n victim)) ()
  in
  let _id1 = Group.multicast group () in
  Group.run group;
  Alcotest.(check bool) "victim got the first message via recovery" true
    (Member.has_received (Group.member group victim) id0)

(* a whole region missing a message needs remote recovery, and the
   repair then spreads via regional multicast *)
let test_remote_recovery_regional_loss () =
  let topology = Topology.chain ~sizes:[ 10; 10 ] in
  let log, observer = event_collector () in
  let group = Group.create ~seed:5 ~observer ~topology () in
  let region1 = Region_id.of_int 1 in
  let in_region1 n = Node_id.to_int n >= 10 in
  let id = Group.multicast_reaching group ~reach:(fun n -> not (in_region1 n)) () in
  (* everyone in region 1 detects the loss simultaneously (the paper's
     experiment setup does this through session knowledge) *)
  List.iter (fun m -> Member.inject_loss m id) (Group.members_of_region group region1);
  Group.run group;
  Alcotest.(check bool) "entire region recovered" true (Group.received_by_all group id);
  (* at least one repair crossed regions, and regional multicast spread it *)
  let net = Group.net group in
  Alcotest.(check bool) "remote requests were sent" true
    ((Network.stats net ~cls:"remote-req").Network.sent > 0);
  Alcotest.(check bool) "regional repair used" true
    ((Network.stats net ~cls:"regional-repair").Network.sent > 0);
  ignore log

(* a remote request reaching a member that also misses the message is
   recorded and relayed when the member recovers (Section 2.2) *)
let test_record_and_relay () =
  let topology = Topology.chain ~sizes:[ 3; 3; 3 ] in
  let group = Group.create ~seed:6 ~topology () in
  (* only region 0 gets the message: region 2's remote requests go to
     region 1, which is also missing it *)
  let id = Group.multicast_reaching group ~reach:(fun n -> Node_id.to_int n < 3) () in
  List.iter
    (fun r ->
      List.iter
        (fun m -> Member.inject_loss m id)
        (Group.members_of_region group (Region_id.of_int r)))
    [ 1; 2 ];
  Group.run group;
  Alcotest.(check bool) "all three regions end up with the message" true
    (Group.received_by_all group id)

(* ------------------------------------------------------------------ *)
(* Two-phase buffering                                                 *)
(* ------------------------------------------------------------------ *)

(* with nothing missing, every member discards after about T unless it
   becomes a long-term bufferer; expected bufferers ~= C *)
let test_idle_discard_keeps_about_c () =
  let totals = ref 0.0 in
  let runs = 20 in
  for seed = 1 to runs do
    let topology = Topology.single_region ~size:100 in
    let config = { Config.default with Config.expected_bufferers = 6.0 } in
    let group = Group.create ~seed ~config ~topology () in
    let id = Group.multicast group () in
    Group.run group;
    totals := !totals +. float_of_int (Group.count_buffered group id)
  done;
  let mean = !totals /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "mean long-term bufferers %.2f in [4,8]" mean)
    true
    (mean > 4.0 && mean < 8.0)

(* C = 0 means everyone discards after the idle threshold *)
let test_idle_discard_all_when_c_zero () =
  let topology = Topology.single_region ~size:50 in
  let config = { Config.default with Config.expected_bufferers = 0.0 } in
  let group = Group.create ~seed:7 ~config ~topology () in
  let id = Group.multicast group () in
  Group.run group;
  Alcotest.(check int) "no bufferers left" 0 (Group.count_buffered group id);
  Alcotest.(check bool) "still received everywhere" true (Group.received_by_all group id)

(* requests reset the idle timer, so holders keep a contested message
   longer than an uncontested one (the feedback mechanism) *)
let test_feedback_extends_buffering () =
  let buffering_time ~missing ~seed =
    let topology = Topology.single_region ~size:100 in
    let log, observer = event_collector () in
    let group = Group.create ~seed ~observer ~topology () in
    let holder = Node_id.of_int 0 in
    let id =
      Group.multicast_reaching group
        ~reach:(fun n -> Node_id.to_int n >= missing + 1)
        ()
    in
    (* nodes 1..missing miss it; all detect simultaneously *)
    for i = 1 to missing do
      Member.inject_loss (Group.member group (Node_id.of_int i)) id
    done;
    Group.run group;
    List.find_map
      (fun (_, self, e) ->
        match e with
        | Events.Became_idle { buffered_for; _ } when Node_id.equal self holder ->
          Some buffered_for
        | _ -> None)
      (List.rev !log)
  in
  match (buffering_time ~missing:0 ~seed:8, buffering_time ~missing:60 ~seed:8) with
  | Some quiet, Some contested ->
    Alcotest.(check (float 1e-6)) "uncontested = T" 40.0 quiet;
    Alcotest.(check bool)
      (Printf.sprintf "contested (%.1f) > uncontested (%.1f)" contested quiet)
      true (contested > quiet)
  | _ -> Alcotest.fail "expected idle events"

(* the sender's own copy also obeys the idle threshold *)
let test_sender_buffers_own_message () =
  let topology = Topology.single_region ~size:5 in
  let group = Group.create ~seed:9 ~topology () in
  let id = Group.multicast group () in
  Alcotest.(check bool) "buffered immediately" true (Member.buffers (Group.sender group) id);
  Group.run group;
  Alcotest.(check bool) "received by all" true (Group.received_by_all group id)

(* long_term_lifetime eventually clears even long-term bufferers *)
let test_long_term_lifetime_discard () =
  let topology = Topology.single_region ~size:10 in
  let config =
    { Config.default with
      Config.expected_bufferers = 1000.0 (* force everyone long-term *);
      Config.long_term_lifetime = Some 100.0;
    }
  in
  let group = Group.create ~seed:10 ~config ~topology () in
  let id = Group.multicast group () in
  Group.run group;
  Alcotest.(check int) "all eventually discard" 0 (Group.count_buffered group id);
  Alcotest.(check bool) "still received" true (Group.received_by_all group id)

(* with no long-term bufferers, a message every member has discarded
   must not stay reachable: no per-member cache of sent wire cells and
   no table keyed by id may pin its body *)
let test_discarded_body_collectable () =
  let topology = Topology.single_region ~size:8 in
  let config = { Config.default with Config.expected_bufferers = 0.0 } in
  let group = Group.create ~seed:11 ~config ~topology () in
  let first = Weak.create 1 in
  let id = Group.multicast group () in
  (* the sender buffers the very body it sent *)
  Weak.set first 0 (Some (Buffer.payload (Buffer.find (Member.buffer (Group.sender group)) id)));
  Alcotest.(check bool) "body watched" true (Weak.check first 0);
  (* later traffic, 100 ms apart, takes over the network's recycled
     parcels that carried message 0 *)
  for k = 1 to 49 do
    Group.run ~until:(100.0 *. float_of_int k) group;
    ignore (Group.multicast group () : Msg_id.t)
  done;
  Group.run group;
  Alcotest.(check int) "every body discarded" 0 (Group.total_buffered_messages group);
  Gc.full_major ();
  Alcotest.(check bool) "first body collected" false (Weak.check first 0);
  ignore (Sys.opaque_identity group)

(* ------------------------------------------------------------------ *)
(* Search for bufferers (Section 3.3)                                  *)
(* ------------------------------------------------------------------ *)

(* build the paper's Figure 8 situation: a region where everyone has
   received and discarded the message except [bufferers] long-term
   bufferers; a remote request arrives at a random member *)
let search_setup ~seed ~region_size ~bufferers =
  let topology = Topology.chain ~sizes:[ region_size; 1 ] in
  let log, observer = event_collector () in
  let group = Group.create ~seed ~observer ~topology () in
  let rng = Engine.Rng.create ~seed:(seed * 7919) in
  let id = mid ~source:0 0 in
  let payload = Payload.make id in
  let region0 = Array.to_list (Topology.members topology (Region_id.of_int 0)) in
  let chosen = Engine.Rng.sample_without_replacement rng bufferers (Array.of_list region0) in
  List.iter
    (fun node ->
      let m = Group.member group node in
      if Array.exists (Node_id.equal node) chosen then
        Member.force_buffer m ~phase:Buffer.Long_term payload
      else Member.force_received m id)
    region0;
  (* the downstream origin (node region_size) misses the message *)
  let origin = Node_id.of_int region_size in
  let target = Engine.Rng.pick rng (Array.of_list region0) in
  Network.unicast (Group.net group) ~cls:"remote-req" ~src:origin ~dst:target
    (Rrmp.Wire.Remote_request { id; origin });
  (group, log, id, origin)

let test_search_finds_bufferer () =
  let group, _log, id, origin = search_setup ~seed:11 ~region_size:50 ~bufferers:3 in
  Group.run group;
  Alcotest.(check bool) "origin got the repair" true
    (Member.has_received (Group.member group origin) id)

let test_search_zero_when_hitting_bufferer () =
  (* all members buffer => the request always lands on a bufferer and
     no Search messages are needed *)
  let group, _log, id, origin = search_setup ~seed:12 ~region_size:20 ~bufferers:20 in
  Group.run group;
  Alcotest.(check bool) "served" true (Member.has_received (Group.member group origin) id);
  Alcotest.(check int) "no search traffic" 0
    (Network.stats (Group.net group) ~cls:"search").Network.sent

let test_search_have_announced_once () =
  let group, _log, id, origin = search_setup ~seed:13 ~region_size:30 ~bufferers:1 in
  Group.run group;
  Alcotest.(check bool) "served" true (Member.has_received (Group.member group origin) id);
  (* the bufferer's regional announcement happens at most once (29
     packets); every additional Have is a direct ack to a searcher
     whose probe reached the bufferer, so it is bounded by the search
     traffic *)
  let have = (Network.stats (Group.net group) ~cls:"have").Network.sent in
  let searches = (Network.stats (Group.net group) ~cls:"search").Network.sent in
  Alcotest.(check bool)
    (Printf.sprintf "have sent %d <= 29 + %d searches" have searches)
    true
    (have <= 29 + searches)

let test_search_single_bufferer_terminates () =
  let group, log, id, origin = search_setup ~seed:14 ~region_size:100 ~bufferers:1 in
  Group.run group;
  Alcotest.(check bool) "eventually served" true
    (Member.has_received (Group.member group origin) id);
  let satisfied =
    List.exists (function Events.Search_satisfied _ -> true | _ -> false) (events_of log)
  in
  Alcotest.(check bool) "satisfied event" true satisfied;
  Alcotest.(check bool) "simulation quiesced" true (Group.quiescent group)

(* ------------------------------------------------------------------ *)
(* Handoff on leave (Section 3.2)                                      *)
(* ------------------------------------------------------------------ *)

let test_leave_hands_off_long_term_buffer () =
  let topology = Topology.single_region ~size:10 in
  let log, observer = event_collector () in
  let group = Group.create ~seed:15 ~observer ~topology () in
  let id = mid 0 in
  let payload = Payload.make id in
  (* node 3 is the sole long-term bufferer; everyone else discarded *)
  List.iter
    (fun m ->
      if Node_id.equal (Member.node m) (Node_id.of_int 3) then
        Member.force_buffer m ~phase:Buffer.Long_term payload
      else Member.force_received m id)
    (Group.members group);
  Group.leave group (Node_id.of_int 3);
  Group.run group;
  Alcotest.(check int) "exactly one member took over" 1 (Group.count_buffered group id);
  let new_bufferer =
    match Group.bufferers group id with [ n ] -> n | _ -> Alcotest.fail "one bufferer"
  in
  Alcotest.(check bool) "took over long-term" true
    (Member.buffer_phase (Group.member group new_bufferer) id = Some Buffer.Long_term);
  let sent =
    List.exists (function Events.Handoff_sent _ -> true | _ -> false) (events_of log)
  and received =
    List.exists (function Events.Handoff_received _ -> true | _ -> false) (events_of log)
  in
  Alcotest.(check bool) "handoff events" true (sent && received)

let test_crash_does_not_hand_off () =
  let topology = Topology.single_region ~size:10 in
  let group = Group.create ~seed:16 ~topology () in
  let id = mid 0 in
  let payload = Payload.make id in
  List.iter
    (fun m ->
      if Node_id.equal (Member.node m) (Node_id.of_int 3) then
        Member.force_buffer m ~phase:Buffer.Long_term payload
      else Member.force_received m id)
    (Group.members group);
  Group.crash group (Node_id.of_int 3);
  Group.run group;
  Alcotest.(check int) "buffer lost with the crash" 0 (Group.count_buffered group id)

let test_join_participates () =
  let topology = Topology.single_region ~size:5 in
  let group = Group.create ~seed:17 ~topology () in
  let joiner = Group.join group (Region_id.of_int 0) in
  let id = Group.multicast group () in
  Group.run group;
  Alcotest.(check bool) "joiner received" true (Member.has_received joiner id);
  Alcotest.(check int) "six members saw it" 6 (Group.count_received group id)

(* ------------------------------------------------------------------ *)
(* Regional repair duplicate suppression (backoff)                     *)
(* ------------------------------------------------------------------ *)

let regional_repair_count ~regional_send ~seed =
  let topology = Topology.chain ~sizes:[ 10; 10 ] in
  let config = { Config.default with Config.regional_send; Config.lambda = 5.0 } in
  let group = Group.create ~seed ~config ~topology () in
  let id = Group.multicast_reaching group ~reach:(fun n -> Node_id.to_int n < 10) () in
  List.iter
    (fun m -> Member.inject_loss m id)
    (Group.members_of_region group (Region_id.of_int 1));
  Group.run group;
  Alcotest.(check bool) "recovered" true (Group.received_by_all group id);
  (Network.stats (Group.net group) ~cls:"regional-repair").Network.sent

let test_backoff_suppresses_duplicates () =
  (* with lambda = 5, several members fetch remote repairs in parallel;
     the back-off scheme should multicast fewer regional repairs *)
  let total_immediate = ref 0 and total_backoff = ref 0 in
  for seed = 20 to 29 do
    total_immediate :=
      !total_immediate + regional_repair_count ~regional_send:Config.Immediate ~seed;
    total_backoff :=
      !total_backoff
      + regional_repair_count ~regional_send:(Config.Backoff { max_delay = 30.0 }) ~seed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "backoff (%d) < immediate (%d)" !total_backoff !total_immediate)
    true
    (!total_backoff < !total_immediate)

(* ------------------------------------------------------------------ *)
(* Bounded retries and determinism                                     *)
(* ------------------------------------------------------------------ *)

let test_max_recovery_tries_bounds_requests () =
  let topology = Topology.single_region ~size:5 in
  let config = { Config.default with Config.max_recovery_tries = Some 3 } in
  let group = Group.create ~seed:30 ~config ~topology () in
  (* nobody has the message: recovery can never succeed and must stop *)
  let id = mid ~source:0 0 in
  List.iter (fun m -> Member.inject_loss m id) (Group.members group);
  Group.run group;
  Alcotest.(check bool) "simulation terminates" true (Group.quiescent group);
  let sent = (Network.stats (Group.net group) ~cls:"local-req").Network.sent in
  Alcotest.(check bool) (Printf.sprintf "requests bounded: %d <= 15" sent) true (sent <= 15)

let test_unrecoverable_without_bufferers_terminates () =
  (* message discarded everywhere and no long-term bufferer: the search
     can never succeed, but bounded tries keep the run finite *)
  let topology = Topology.single_region ~size:10 in
  let config = { Config.default with Config.max_recovery_tries = Some 5 } in
  let group = Group.create ~seed:31 ~config ~topology () in
  let id = mid 0 in
  List.iter (fun m -> Member.force_received m id) (Group.members group);
  (* a late joiner misses it and must fail gracefully *)
  let joiner = Group.join group (Region_id.of_int 0) in
  Member.inject_loss joiner id;
  Group.run ~max_events:200_000 group;
  Alcotest.(check bool) "joiner still missing" false (Member.has_received joiner id)

let test_determinism_same_seed () =
  let run seed =
    let topology = Topology.chain ~sizes:[ 20; 20 ] in
    let group = Group.create ~seed ~loss:(Loss.Bernoulli 0.2) ~topology () in
    let ids = List.init 5 (fun _ -> Group.multicast group ()) in
    Member.send_session (Group.sender group);
    Group.run group;
    ( List.map (fun id -> Group.count_received group id) ids,
      Network.total_sent (Group.net group),
      Group.now group )
  in
  let a = run 42 and b = run 42 and c = run 43 in
  Alcotest.(check bool) "same seed, same outcome" true (a = b);
  Alcotest.(check bool) "different seed diverges" true (a <> c)

(* under random loss with session messages, everything is eventually
   delivered everywhere (the reliability property) *)
let test_reliability_under_loss () =
  let topology = Topology.chain ~sizes:[ 15; 15; 15 ] in
  let config = { Config.default with Config.session_interval = Some 20.0 } in
  let group = Group.create ~seed:33 ~config ~loss:(Loss.Bernoulli 0.3) ~topology () in
  let ids = List.init 10 (fun _ -> Group.multicast group ()) in
  Group.run ~until:10_000.0 group;
  List.iteri
    (fun i id ->
      Alcotest.(check int)
        (Printf.sprintf "message %d received by all 45" i)
        45 (Group.count_received group id))
    ids

let suites =
  [
    ( "rrmp.config",
      [
        Alcotest.test_case "default valid" `Quick test_config_default_valid;
        Alcotest.test_case "rejects bad values" `Quick test_config_rejects_bad_values;
      ] );
    ( "rrmp.long_term",
      [
        Alcotest.test_case "probability" `Quick test_long_term_probability;
        QCheck_alcotest.to_alcotest qcheck_long_term_mean;
      ] );
    ( "rrmp.buffer",
      [
        Alcotest.test_case "insert/find/remove" `Quick test_buffer_insert_find_remove;
        Alcotest.test_case "occupancy integral" `Quick test_buffer_occupancy_integral;
        Alcotest.test_case "long-term payloads" `Quick test_buffer_long_term_payloads;
        Alcotest.test_case "retention deadline" `Quick test_buffer_deadline;
        Alcotest.test_case "phase counters" `Quick test_buffer_phase_counters;
        Alcotest.test_case "iter/fold match contents" `Quick test_buffer_iter_fold_match_contents;
      ] );
    ( "rrmp.recovery",
      [
        Alcotest.test_case "lossless delivery" `Quick test_lossless_delivery;
        Alcotest.test_case "local recovery" `Quick test_local_recovery_single_loss;
        Alcotest.test_case "gap triggers recovery" `Quick test_gap_triggers_recovery;
        Alcotest.test_case "remote recovery" `Quick test_remote_recovery_regional_loss;
        Alcotest.test_case "record and relay" `Quick test_record_and_relay;
        Alcotest.test_case "max tries bound" `Quick test_max_recovery_tries_bounds_requests;
        Alcotest.test_case "unrecoverable terminates" `Quick test_unrecoverable_without_bufferers_terminates;
        Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
        Alcotest.test_case "reliability under loss" `Quick test_reliability_under_loss;
      ] );
    ( "rrmp.buffering",
      [
        Alcotest.test_case "~C bufferers remain" `Quick test_idle_discard_keeps_about_c;
        Alcotest.test_case "C=0 discards all" `Quick test_idle_discard_all_when_c_zero;
        Alcotest.test_case "feedback extends buffering" `Quick test_feedback_extends_buffering;
        Alcotest.test_case "sender buffers own" `Quick test_sender_buffers_own_message;
        Alcotest.test_case "long-term lifetime" `Quick test_long_term_lifetime_discard;
        Alcotest.test_case "discarded body collectable" `Quick test_discarded_body_collectable;
      ] );
    ( "rrmp.search",
      [
        Alcotest.test_case "finds bufferer" `Quick test_search_finds_bufferer;
        Alcotest.test_case "zero search at bufferer" `Quick test_search_zero_when_hitting_bufferer;
        Alcotest.test_case "have announced once" `Quick test_search_have_announced_once;
        Alcotest.test_case "single bufferer terminates" `Quick test_search_single_bufferer_terminates;
      ] );
    ( "rrmp.membership",
      [
        Alcotest.test_case "leave hands off" `Quick test_leave_hands_off_long_term_buffer;
        Alcotest.test_case "crash loses buffer" `Quick test_crash_does_not_hand_off;
        Alcotest.test_case "join participates" `Quick test_join_participates;
      ] );
    ( "rrmp.suppression",
      [ Alcotest.test_case "backoff suppresses" `Slow test_backoff_suppresses_duplicates ] );
  ]

(* ------------------------------------------------------------------ *)
(* Failure detection over the RRMP network                             *)
(* ------------------------------------------------------------------ *)

let test_fd_suspects_crashed_member () =
  let topology = Topology.single_region ~size:8 in
  let group = Group.create ~seed:40 ~topology () in
  Group.enable_failure_detection group ~gossip_interval:10.0 ~fail_timeout:100.0;
  (* fail node 5 without telling anyone: handler unregistered, but the
     node stays in everyone's view *)
  let failed = Node_id.of_int 5 in
  ignore
    (Engine.Sim.schedule (Group.sim group) ~delay:200.0 (fun () ->
         Member.crash (Group.member group failed)));
  Group.run ~until:1_000.0 group;
  List.iter
    (fun m ->
      if not (Node_id.equal (Member.node m) failed) then
        Alcotest.(check bool)
          (Printf.sprintf "%s suspects the crashed node"
             (Node_id.to_string (Member.node m)))
          true
          (Member.is_suspected m failed))
    (Group.members group)

let test_fd_no_false_suspicion_over_rrmp () =
  let topology = Topology.chain ~sizes:[ 5; 5 ] in
  let group = Group.create ~seed:41 ~topology () in
  Group.enable_failure_detection group ~gossip_interval:10.0 ~fail_timeout:200.0;
  Group.run ~until:2_000.0 group;
  List.iter
    (fun m ->
      Alcotest.(check (list int)) "healthy group: no suspects" []
        (List.map Node_id.to_int (Member.suspects m)))
    (Group.members group)

let test_fd_disabled_by_default () =
  let topology = Topology.single_region ~size:3 in
  let group = Group.create ~seed:42 ~topology () in
  Group.run ~until:100.0 group;
  Alcotest.(check (list int)) "no detector, no suspects" []
    (List.map Node_id.to_int (Member.suspects (Group.sender group)));
  Alcotest.(check int) "no gossip traffic" 0
    (Network.stats (Group.net group) ~cls:"gossip").Network.sent

let fd_suite =
  ( "rrmp.failure_detection",
    [
      Alcotest.test_case "suspects crashed member" `Quick test_fd_suspects_crashed_member;
      Alcotest.test_case "no false suspicion" `Quick test_fd_no_false_suspicion_over_rrmp;
      Alcotest.test_case "disabled by default" `Quick test_fd_disabled_by_default;
    ] )

let suites = suites @ [ fd_suite ]

(* ------------------------------------------------------------------ *)
(* Analytical search model                                             *)
(* ------------------------------------------------------------------ *)

module Model = Rrmp.Model

let test_model_hit_probability () =
  (* one searcher, k of n-1 candidates *)
  Alcotest.(check (float 1e-12)) "single probe" (10.0 /. 99.0)
    (Model.search_hit_probability ~n:100 ~k:10 ~searchers:1);
  (* many searchers approach certainty *)
  Alcotest.(check bool) "many probes ~1" true
    (Model.search_hit_probability ~n:100 ~k:10 ~searchers:100 > 0.99)

let test_model_monotone_in_k () =
  let prev = ref infinity in
  for k = 1 to 10 do
    let t = Model.expected_search_time ~n:100 ~k ~rtt:10.0 in
    Alcotest.(check bool) (Printf.sprintf "decreasing at k=%d" k) true (t < !prev);
    prev := t
  done

let test_model_sublinear_in_n () =
  let t100 = Model.expected_search_time ~n:100 ~k:10 ~rtt:10.0 in
  let t1000 = Model.expected_search_time ~n:1000 ~k:10 ~rtt:10.0 in
  let factor = t1000 /. t100 in
  Alcotest.(check bool)
    (Printf.sprintf "10x size -> %.2fx time" factor)
    true
    (factor > 1.5 && factor < 4.0)

let test_model_matches_simulation () =
  (* the model should predict the fig8 measurement within ~25% *)
  List.iter
    (fun k ->
      let model = Model.expected_search_time ~n:100 ~k ~rtt:10.0 in
      let measured =
        let s = Stats.Summary.create () in
        for seed = 1 to 40 do
          Stats.Summary.add s (Experiments.Fig8.search_time ~region:100 ~bufferers:k ~seed)
        done;
        Stats.Summary.mean s
      in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d model %.1f vs sim %.1f" k model measured)
        true
        (abs_float (model -. measured) /. Float.max measured 1.0 < 0.3))
    [ 2; 6; 10 ]

let test_model_idle_premature_probability () =
  (* more missing members -> requests more likely -> premature idle
     less likely *)
  let few = Model.prob_idle_fires_while_missing ~n:100 ~missing:2 ~rounds:4.0 in
  let many = Model.prob_idle_fires_while_missing ~n:100 ~missing:50 ~rounds:4.0 in
  Alcotest.(check bool) "monotone" true (many < few);
  Alcotest.(check bool) "bounded" true (few <= 1.0 && many >= 0.0)

let model_suite =
  ( "rrmp.model",
    [
      Alcotest.test_case "hit probability" `Quick test_model_hit_probability;
      Alcotest.test_case "monotone in k" `Quick test_model_monotone_in_k;
      Alcotest.test_case "sublinear in n" `Quick test_model_sublinear_in_n;
      Alcotest.test_case "matches simulation" `Slow test_model_matches_simulation;
      Alcotest.test_case "premature idle probability" `Quick test_model_idle_premature_probability;
    ] )

let suites = suites @ [ model_suite ]

let test_tracing_observer () =
  let tracer = Tracing.Tracer.create () in
  let topology = Topology.single_region ~size:5 in
  let group =
    Group.create ~seed:50 ~observer:(Events.tracing_observer tracer) ~topology ()
  in
  let _id = Group.multicast group () in
  Group.run group;
  Alcotest.(check bool) "events recorded" true (Tracing.Tracer.length tracer > 0);
  let kinds =
    List.map (fun e -> e.Tracing.Tracer.event) (Tracing.Tracer.entries tracer)
    |> List.sort_uniq String.compare
  in
  Alcotest.(check bool) "delivered traced" true (List.mem "delivered" kinds);
  Alcotest.(check bool) "idle traced" true (List.mem "became-idle" kinds)

let tracing_suite =
  ("rrmp.tracing", [ Alcotest.test_case "tracing observer" `Quick test_tracing_observer ])

let suites = suites @ [ tracing_suite ]

(* ------------------------------------------------------------------ *)
(* Allocation discipline on the gated hot path                         *)
(* ------------------------------------------------------------------ *)

(* On the default config with neither observer nor metrics attached,
   processing a duplicate regional repair — the feedback op that
   dominates large-group recovery traffic: length-guarded regional
   suppression, windowed duplicate check, one lookup and a touch of the
   buffer entry's deadline — must
   allocate NOTHING on the minor heap. This is the "allocation-free
   event emission" claim made mechanically checkable: any ungated
   [emit], [Some]-allocating table probe, eager timer re-arm or
   boxed-float write on the path shows up as a nonzero word delta. *)

let test_zero_alloc_duplicate_feedback () =
  let config = { Config.default with Config.long_term_lifetime = Some 1.0e6 } in
  let topology = Topology.single_region ~size:4 in
  let group = Group.create ~seed:3 ~config ~topology () in
  let id = Group.multicast group () in
  Group.run ~until:6.0 group;
  (* everyone holds the body now; a re-delivered regional repair is a
     pure feedback touch *)
  let m = Group.member group (Node_id.of_int 1) in
  Alcotest.(check bool) "body delivered" true (Member.has_received m id);
  let delivery =
    {
      Network.src = Node_id.of_int 2;
      Network.dst = Node_id.of_int 1;
      Network.msg = Rrmp.Wire.Regional_repair (Payload.make id);
      Network.sent_at = 0.0;
      Network.cls = "repair";
    }
  in
  for _ = 1 to 10 do
    Member.inject_delivery m delivery
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Member.inject_delivery m delivery
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "zero minor words per duplicate" 0.0 words

(* the same deterministic run allocates strictly more once an observer
   is attached: every emit site constructs its event record only when
   someone is listening *)
let test_emission_gating_saves_allocation () =
  let run ~observer () =
    let topology = Topology.single_region ~size:20 in
    let w0 = Gc.minor_words () in
    let group = Group.create ~seed:9 ?observer ~topology () in
    for _ = 1 to 5 do
      ignore (Group.multicast group ())
    done;
    Group.run group;
    Gc.minor_words () -. w0
  in
  let silent = run ~observer:None () in
  let observed = run ~observer:(Some (fun ~time:_ ~self:_ _ -> ())) () in
  Alcotest.(check bool)
    (Printf.sprintf "observer costs allocation (%.0f < %.0f)" silent observed)
    true
    (silent < observed)

let alloc_suite =
  ( "rrmp.allocation",
    [
      Alcotest.test_case "zero-alloc duplicate feedback" `Quick
        test_zero_alloc_duplicate_feedback;
      Alcotest.test_case "emission gating saves allocation" `Quick
        test_emission_gating_saves_allocation;
    ] )

let suites = suites @ [ alloc_suite ]

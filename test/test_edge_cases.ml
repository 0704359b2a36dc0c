(* Corner cases of the RRMP member machinery: duplicate handling,
   degenerate regions, multi-sender sessions, handoff races, and
   suppression details. *)

module Msg_id = Protocol.Msg_id
module Config = Rrmp.Config
module Member = Rrmp.Member
module Group = Rrmp.Group
module Buffer = Rrmp.Buffer
module Network = Netsim.Network

let mid ?(source = 0) seq = Msg_id.make ~source:(Node_id.of_int source) ~seq

(* --- degenerate shapes ---------------------------------------------- *)

let test_single_member_group () =
  let topology = Topology.single_region ~size:1 in
  let group = Group.create ~seed:1 ~topology () in
  let id = Group.multicast group () in
  Group.run group;
  Alcotest.(check bool) "own message received" true
    (Member.has_received (Group.sender group) id);
  Alcotest.(check bool) "terminates" true (Group.quiescent group)

let test_two_member_region_recovery () =
  let topology = Topology.single_region ~size:2 in
  let group = Group.create ~seed:2 ~topology () in
  let victim = Node_id.of_int 1 in
  let id = Group.multicast_reaching group ~reach:(fun _ -> false) () in
  Member.inject_loss (Group.member group victim) id;
  Group.run group;
  Alcotest.(check bool) "recovered from the only neighbour" true
    (Member.has_received (Group.member group victim) id)

let test_lonely_region_relies_on_remote () =
  (* a downstream region with a single member: local recovery has no
     neighbours; only the remote phase can help *)
  let topology = Topology.chain ~sizes:[ 5; 1 ] in
  let group = Group.create ~seed:3 ~topology () in
  let loner = Node_id.of_int 5 in
  let id = Group.multicast_reaching group ~reach:(fun n -> Node_id.to_int n < 5) () in
  Member.inject_loss (Group.member group loner) id;
  Group.run group;
  Alcotest.(check bool) "recovered via parent region" true
    (Member.has_received (Group.member group loner) id)

(* --- duplicates and relays ------------------------------------------ *)

let test_duplicate_repairs_are_harmless () =
  let topology = Topology.single_region ~size:10 in
  let group = Group.create ~seed:4 ~topology () in
  let id = Group.multicast group () in
  Group.run group;
  (* fire several redundant repairs at a member that already has it *)
  let target = Node_id.of_int 3 in
  let payload = Rrmp.Payload.make id in
  for i = 4 to 6 do
    Network.unicast (Group.net group) ~cls:"repair" ~src:(Node_id.of_int i) ~dst:target
      (Rrmp.Wire.Repair payload)
  done;
  Group.run group;
  Alcotest.(check bool) "still consistent" true (Member.has_received (Group.member group target) id);
  Alcotest.(check bool) "terminates" true (Group.quiescent group)

let test_pending_remote_served_once () =
  (* two remote requests from the same origin for a message the target
     lacks: the origin must be recorded once and served once *)
  let topology = Topology.chain ~sizes:[ 3; 3 ] in
  let group = Group.create ~seed:5 ~topology () in
  let id = Group.multicast_reaching group ~reach:(fun _ -> false) () in
  let target = Node_id.of_int 0 in
  let origin = Node_id.of_int 4 in
  (* the sender (node 0) holds it; aim at node 1 which misses it *)
  let relay = Node_id.of_int 1 in
  ignore target;
  Network.unicast (Group.net group) ~cls:"remote-req" ~src:origin ~dst:relay
    (Rrmp.Wire.Remote_request { id; origin });
  Network.unicast (Group.net group) ~cls:"remote-req" ~src:origin ~dst:relay
    (Rrmp.Wire.Remote_request { id; origin });
  Group.run group;
  Alcotest.(check bool) "origin served" true
    (Member.has_received (Group.member group origin) id)

let test_remote_request_reveals_existence () =
  (* node 1 neither received the message nor knows it exists; a remote
     request for it must start node 1's own recovery *)
  let topology = Topology.chain ~sizes:[ 3; 2 ] in
  let group = Group.create ~seed:6 ~topology () in
  let id = Group.multicast_reaching group ~reach:(fun n -> Node_id.to_int n = 1) () in
  (* only node 1 got it... wait, make node 2 the one lacking it *)
  ignore id;
  let id2 = Group.multicast_reaching group ~reach:(fun n -> Node_id.to_int n = 1) () in
  let origin = Node_id.of_int 3 in
  Network.unicast (Group.net group) ~cls:"remote-req" ~src:origin ~dst:(Node_id.of_int 2)
    (Rrmp.Wire.Remote_request { id = id2; origin });
  Group.run group;
  Alcotest.(check bool) "node 2 recovered (request revealed the loss)" true
    (Member.has_received (Group.member group (Node_id.of_int 2)) id2);
  Alcotest.(check bool) "origin relayed to" true
    (Member.has_received (Group.member group origin) id2)

(* --- handoff corners ------------------------------------------------- *)

let test_leave_with_empty_buffer_sends_nothing () =
  let topology = Topology.single_region ~size:5 in
  let group = Group.create ~seed:7 ~topology () in
  Group.leave group (Node_id.of_int 2);
  Group.run group;
  Alcotest.(check int) "no handoff traffic" 0
    (Network.stats (Group.net group) ~cls:"handoff").Network.sent

let test_leave_batches_handoff_per_target () =
  (* a member long-term-buffering several messages leaves: each target
     receives at most one handoff packet *)
  let topology = Topology.single_region ~size:3 in
  let group = Group.create ~seed:8 ~topology () in
  let leaver = Group.member group (Node_id.of_int 1) in
  for seq = 0 to 9 do
    Member.force_buffer leaver ~phase:Buffer.Long_term (Rrmp.Payload.make (mid seq))
  done;
  Group.leave group (Node_id.of_int 1);
  Group.run group;
  let sent = (Network.stats (Group.net group) ~cls:"handoff").Network.sent in
  Alcotest.(check bool) (Printf.sprintf "batched: %d packets <= 2 targets" sent) true (sent <= 2);
  (* every message survived somewhere *)
  for seq = 0 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "msg %d survives" seq)
      true
      (Group.count_buffered group (mid seq) > 0)
  done

let test_handoff_to_short_term_holder_promotes () =
  let topology = Topology.single_region ~size:2 in
  let group = Group.create ~seed:9 ~topology () in
  let id = mid 0 in
  let payload = Rrmp.Payload.make id in
  (* node 1 holds it short-term; node 0 long-term and leaves *)
  Member.force_buffer (Group.member group (Node_id.of_int 1)) ~phase:Buffer.Short_term payload;
  Member.force_buffer (Group.member group (Node_id.of_int 0)) ~phase:Buffer.Long_term payload;
  Group.leave group (Node_id.of_int 0);
  Group.run group;
  Alcotest.(check bool) "short-term holder took the long-term role" true
    (Member.buffer_phase (Group.member group (Node_id.of_int 1)) id = Some Buffer.Long_term)

(* every way into the long-term phase arms [long_term_lifetime]: a
   handoff to a member holding the message short-term (promotion), a
   handoff of a message the member does not hold (insertion), and
   forced state *)
let test_handoff_entries_honour_lifetime () =
  let topology = Topology.single_region ~size:2 in
  let config = { Config.default with Config.long_term_lifetime = Some 100.0 } in
  let group = Group.create ~seed:9 ~config ~topology () in
  let leaver = Group.member group (Node_id.of_int 0) in
  let heir = Group.member group (Node_id.of_int 1) in
  let promoted = mid 0 and inserted = mid 1 and forced = mid 2 in
  Member.force_buffer heir ~phase:Buffer.Short_term (Rrmp.Payload.make promoted);
  Member.force_buffer heir ~phase:Buffer.Long_term (Rrmp.Payload.make forced);
  List.iter
    (fun id -> Member.force_buffer leaver ~phase:Buffer.Long_term (Rrmp.Payload.make id))
    [ promoted; inserted ];
  Group.leave group (Node_id.of_int 0);
  let check_all what expected =
    List.iter
      (fun (name, id) ->
        Alcotest.(check bool) (Printf.sprintf "%s %s" name what) true
          (Member.buffer_phase heir id = expected))
      [ ("promoted", promoted); ("inserted", inserted); ("forced", forced) ]
  in
  Group.run ~until:50.0 group;
  check_all "long-term" (Some Buffer.Long_term);
  Group.run ~until:10_000.0 group;
  check_all "expired" None

(* --- multi-sender sessions ------------------------------------------ *)

let test_two_senders () =
  (* any member may multicast: ids are (source, seq) so streams do not
     collide and recovery works per source *)
  let topology = Topology.chain ~sizes:[ 10; 10 ] in
  let config = { Config.default with Config.session_interval = Some 25.0 } in
  let group = Group.create ~seed:10 ~config ~loss:(Loss.Bernoulli 0.2) ~topology () in
  let a = Member.multicast (Group.member group (Node_id.of_int 0)) () in
  let b = Member.multicast (Group.member group (Node_id.of_int 15)) () in
  Alcotest.(check bool) "distinct ids" false (Msg_id.equal a b);
  Group.run ~until:10_000.0 group;
  Alcotest.(check int) "stream A delivered" 20 (Group.count_received group a);
  Alcotest.(check int) "stream B delivered" 20 (Group.count_received group b)

(* --- regional backoff suppression details ---------------------------- *)

let test_backoff_cancelled_by_peer_multicast () =
  (* force two members of a region to obtain the same remote repair at
     slightly different times: with back-off, the later regional
     multicast is suppressed by the earlier one *)
  let topology = Topology.chain ~sizes:[ 2; 6 ] in
  let config =
    { Config.default with
      Config.regional_send = Config.Backoff { max_delay = 50.0 };
      Config.lambda = 20.0 (* both downstream members ask remotely *);
    }
  in
  let group = Group.create ~seed:11 ~config ~topology () in
  let id = Group.multicast_reaching group ~reach:(fun n -> Node_id.to_int n < 2) () in
  List.iter
    (fun m -> Member.inject_loss m id)
    (Group.members_of_region group (Region_id.of_int 1));
  Group.run group;
  Alcotest.(check bool) "all recovered" true (Group.received_by_all group id);
  (* at most a couple of regional multicasts despite many remote repairs *)
  let regional = (Network.stats (Group.net group) ~cls:"regional-repair").Network.sent in
  Alcotest.(check bool)
    (Printf.sprintf "suppressed: %d regional packets <= 3 multicasts x 5" regional)
    true
    (regional <= 15)

(* --- search without candidates --------------------------------------- *)

let test_search_alone_in_region () =
  (* the only member of a region gets a remote request for a message it
     discarded: there is nobody to search; the run must terminate *)
  let topology = Topology.chain ~sizes:[ 1; 1 ] in
  let config = { Config.default with Config.max_recovery_tries = Some 10 } in
  let group = Group.create ~seed:12 ~config ~topology () in
  let id = mid 0 in
  Member.force_received (Group.member group (Node_id.of_int 0)) id;
  let origin = Node_id.of_int 1 in
  Network.unicast (Group.net group) ~cls:"remote-req" ~src:origin ~dst:(Node_id.of_int 0)
    (Rrmp.Wire.Remote_request { id; origin });
  Group.run ~max_events:50_000 group;
  Alcotest.(check bool) "terminates" true (Group.quiescent group);
  Alcotest.(check bool) "origin not served (nobody has it)" false
    (Member.has_received (Group.member group origin) id)

let suites =
  [
    ( "rrmp.edge.shapes",
      [
        Alcotest.test_case "single member" `Quick test_single_member_group;
        Alcotest.test_case "two members" `Quick test_two_member_region_recovery;
        Alcotest.test_case "lonely region" `Quick test_lonely_region_relies_on_remote;
      ] );
    ( "rrmp.edge.duplicates",
      [
        Alcotest.test_case "duplicate repairs harmless" `Quick test_duplicate_repairs_are_harmless;
        Alcotest.test_case "pending remote served once" `Quick test_pending_remote_served_once;
        Alcotest.test_case "request reveals existence" `Quick test_remote_request_reveals_existence;
      ] );
    ( "rrmp.edge.handoff",
      [
        Alcotest.test_case "empty buffer" `Quick test_leave_with_empty_buffer_sends_nothing;
        Alcotest.test_case "batched per target" `Quick test_leave_batches_handoff_per_target;
        Alcotest.test_case "promotes short-term holder" `Quick test_handoff_to_short_term_holder_promotes;
        Alcotest.test_case "long-term entries honour lifetime" `Quick
          test_handoff_entries_honour_lifetime;
      ] );
    ( "rrmp.edge.multi_sender",
      [ Alcotest.test_case "two senders" `Quick test_two_senders ] );
    ( "rrmp.edge.suppression",
      [ Alcotest.test_case "backoff cancelled by peer" `Quick test_backoff_cancelled_by_peer_multicast ] );
    ( "rrmp.edge.search",
      [ Alcotest.test_case "alone in region" `Quick test_search_alone_in_region ] );
  ]

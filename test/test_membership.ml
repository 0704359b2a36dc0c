(* Tests for membership views and the gossip failure detector. *)

let test_view_basic () =
  let topology = Topology.chain ~sizes:[ 3; 2 ] in
  let owner = Node_id.of_int 3 in
  let view = Membership.View.create topology ~owner in
  Alcotest.(check int) "region" 1 (Region_id.to_int (Membership.View.region view));
  Alcotest.(check (list int)) "local sans owner" [ 4 ]
    (Array.to_list (Array.map Node_id.to_int (Membership.View.local_members view)));
  Alcotest.(check (list int)) "parent members" [ 0; 1; 2 ]
    (Array.to_list (Array.map Node_id.to_int (Membership.View.parent_members view)));
  Alcotest.(check int) "local size includes owner" 2 (Membership.View.local_size view)

let test_view_root_region_has_no_parent () =
  let topology = Topology.chain ~sizes:[ 3; 2 ] in
  let view = Membership.View.create topology ~owner:(Node_id.of_int 0) in
  Alcotest.(check bool) "no parent" true (Membership.View.parent_region view = None);
  Alcotest.(check int) "no parent members" 0
    (Array.length (Membership.View.parent_members view))

let test_view_staleness_until_refresh () =
  let topology = Topology.single_region ~size:3 in
  let view = Membership.View.create topology ~owner:(Node_id.of_int 0) in
  let fresh = Topology.add_node topology (Region_id.of_int 0) in
  Alcotest.(check bool) "stale: unseen" false (Membership.View.knows view fresh);
  Membership.View.refresh view;
  Alcotest.(check bool) "refreshed: seen" true (Membership.View.knows view fresh)

let test_view_random_local_never_owner () =
  let topology = Topology.single_region ~size:4 in
  let owner = Node_id.of_int 2 in
  let view = Membership.View.create topology ~owner in
  let rng = Engine.Rng.create ~seed:5 in
  for _ = 1 to 200 do
    match Membership.View.random_local view rng with
    | Some n -> Alcotest.(check bool) "not owner" false (Node_id.equal n owner)
    | None -> Alcotest.fail "expected a neighbour"
  done

let test_view_random_local_other () =
  let topology = Topology.single_region ~size:3 in
  let view = Membership.View.create topology ~owner:(Node_id.of_int 0) in
  let rng = Engine.Rng.create ~seed:6 in
  for _ = 1 to 100 do
    match Membership.View.random_local_other view rng ~not_equal:(Node_id.of_int 1) with
    | Some n -> Alcotest.(check int) "only candidate" 2 (Node_id.to_int n)
    | None -> Alcotest.fail "expected node 2"
  done

let test_view_singleton_region () =
  let topology = Topology.single_region ~size:1 in
  let view = Membership.View.create topology ~owner:(Node_id.of_int 0) in
  let rng = Engine.Rng.create ~seed:7 in
  Alcotest.(check bool) "no neighbours" true (Membership.View.random_local view rng = None)

(* gossip failure detector wired over an in-memory "network" with
   direct synchronous delivery *)
let make_fd_cluster ~sim ~rng ~n ~gossip_interval ~fail_timeout =
  let fds = Array.make n None in
  let nodes = Array.init n Node_id.of_int in
  let send_to self ~dst digest =
    ignore self;
    match fds.(Node_id.to_int dst) with
    | Some fd -> Membership.Gossip_fd.on_gossip fd digest
    | None -> ()
  in
  Array.iteri
    (fun i node ->
      let peers = Array.of_list (List.filter (fun m -> m <> node) (Array.to_list nodes)) in
      let fd =
        Membership.Gossip_fd.create ~sim ~rng:(Engine.Rng.split rng) ~self:node ~peers
          ~gossip_interval ~fail_timeout ~send:(send_to node) ()
      in
      fds.(i) <- Some fd)
    nodes;
  Array.map Option.get fds

let test_gossip_no_false_suspicion () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:8 in
  let fds = make_fd_cluster ~sim ~rng ~n:5 ~gossip_interval:10.0 ~fail_timeout:100.0 in
  Engine.Sim.run ~until:1000.0 sim;
  Array.iter
    (fun fd ->
      Alcotest.(check (list int)) "no suspects in a healthy group" []
        (List.map Node_id.to_int (Membership.Gossip_fd.suspects fd)))
    fds

let test_gossip_detects_stopped_member () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:9 in
  let fds = make_fd_cluster ~sim ~rng ~n:5 ~gossip_interval:10.0 ~fail_timeout:100.0 in
  (* node 4 fails at t=200 *)
  ignore
    (Engine.Sim.schedule sim ~delay:200.0 (fun () -> Membership.Gossip_fd.stop fds.(4)));
  Engine.Sim.run ~until:1000.0 sim;
  Array.iteri
    (fun i fd ->
      if i <> 4 then
        Alcotest.(check bool)
          (Printf.sprintf "member %d suspects node 4" i)
          true
          (Membership.Gossip_fd.is_suspected fd (Node_id.of_int 4)))
    fds

let test_gossip_heartbeats_propagate () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:10 in
  let fds = make_fd_cluster ~sim ~rng ~n:4 ~gossip_interval:10.0 ~fail_timeout:500.0 in
  Engine.Sim.run ~until:300.0 sim;
  (* everyone should have learned a positive heartbeat for everyone *)
  Array.iteri
    (fun i fd ->
      Array.iteri
        (fun j _ ->
          match Membership.Gossip_fd.heartbeat_of fd (Node_id.of_int j) with
          | Some hb -> Alcotest.(check bool) (Printf.sprintf "%d knows %d" i j) true (hb > 0)
          | None -> Alcotest.fail (Printf.sprintf "%d never heard of %d" i j))
        fds)
    fds

let test_gossip_self_never_suspected () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:11 in
  let fds = make_fd_cluster ~sim ~rng ~n:2 ~gossip_interval:10.0 ~fail_timeout:50.0 in
  Engine.Sim.run ~until:500.0 sim;
  Alcotest.(check bool) "self not suspected" false
    (Membership.Gossip_fd.is_suspected fds.(0) (Node_id.of_int 0))

let suites =
  [
    ( "membership.view",
      [
        Alcotest.test_case "basic" `Quick test_view_basic;
        Alcotest.test_case "root has no parent" `Quick test_view_root_region_has_no_parent;
        Alcotest.test_case "staleness until refresh" `Quick test_view_staleness_until_refresh;
        Alcotest.test_case "random_local never owner" `Quick test_view_random_local_never_owner;
        Alcotest.test_case "random_local_other" `Quick test_view_random_local_other;
        Alcotest.test_case "singleton region" `Quick test_view_singleton_region;
      ] );
    ( "membership.gossip_fd",
      [
        Alcotest.test_case "no false suspicion" `Quick test_gossip_no_false_suspicion;
        Alcotest.test_case "detects stopped member" `Quick test_gossip_detects_stopped_member;
        Alcotest.test_case "heartbeats propagate" `Quick test_gossip_heartbeats_propagate;
        Alcotest.test_case "self never suspected" `Quick test_gossip_self_never_suspected;
      ] );
  ]

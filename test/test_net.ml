(* The UDP loopback transport: real datagrams through real sockets,
   driven deterministically (sim clock for every timer, seeded loss on
   the send side). The final test runs full RRMP loss recovery over
   the wire codec and actual kernel queues. *)

module Msg_id = Protocol.Msg_id
module Wire = Rrmp.Wire
module Payload = Rrmp.Payload
module Member = Rrmp.Member
module Config = Rrmp.Config
module Network = Netsim.Network
module Transport = Net.Transport
module Udp = Net.Udp_loopback

let mid ?(source = 0) seq = Msg_id.make ~source:(Node_id.of_int source) ~seq

let node = Node_id.of_int

let nodes_upto n = Array.init n node

let payload_equal a b =
  Msg_id.equal (Payload.id a) (Payload.id b)
  && Int.equal (Payload.size a) (Payload.size b)
  && Int.equal (Payload.checksum a) (Payload.checksum b)

let wire_equal a b =
  match (a, b) with
  | Wire.Data p, Wire.Data q
  | Wire.Repair p, Wire.Repair q
  | Wire.Regional_repair p, Wire.Regional_repair q ->
    payload_equal p q
  | Wire.Session { max_seq = x }, Wire.Session { max_seq = y } -> Int.equal x y
  | Wire.Local_request i, Wire.Local_request j | Wire.Have i, Wire.Have j -> Msg_id.equal i j
  | Wire.Remote_request { id = i; origin = o }, Wire.Remote_request { id = j; origin = p }
  | Wire.Search { id = i; origin = o }, Wire.Search { id = j; origin = p } ->
    Msg_id.equal i j && Node_id.equal o p
  | Wire.Handoff ps, Wire.Handoff qs -> List.equal payload_equal ps qs
  | Wire.History d1, Wire.History d2 ->
    List.equal
      (fun (n1, (h1, m1)) (n2, (h2, m2)) ->
        Node_id.equal n1 n2 && Int.equal h1 h2 && List.equal Int.equal m1 m2)
      d1 d2
  | Wire.Gossip t1, Wire.Gossip t2 ->
    List.equal (fun (n1, h1) (n2, h2) -> Node_id.equal n1 n2 && Int.equal h1 h2) t1 t2
  | _ -> false

let with_transport ?loss ?seed ~n f =
  let t = Udp.create ?loss ?seed ~nodes:(nodes_upto n) () in
  Fun.protect ~finally:(fun () -> Udp.close t) (fun () -> f t)

let test_datagram_round_trip () =
  with_transport ~n:2 (fun t ->
      let msg = Wire.Data (Payload.make ~size:512 (mid 0)) in
      Udp.send t ~src:(node 0) ~dst:(node 1) msg;
      let got = ref [] in
      let n = Udp.drain t ~handle:(fun ~src ~dst m -> got := (src, dst, m) :: !got) in
      Alcotest.(check int) "one message handed up" 1 n;
      (match !got with
       | [ (src, dst, m) ] ->
         Alcotest.(check int) "src" 0 (Node_id.to_int src);
         Alcotest.(check int) "dst" 1 (Node_id.to_int dst);
         Alcotest.(check bool) "message survives the socket" true (wire_equal msg m);
         (match m with
          | Wire.Data p -> Alcotest.(check bool) "body intact" true (Payload.intact p)
          | _ -> Alcotest.fail "expected Data")
       | _ -> Alcotest.fail "expected exactly one delivery");
      let st = Udp.stats t in
      Alcotest.(check int) "sent" 1 st.Transport.datagrams_sent;
      Alcotest.(check int) "received" 1 st.Transport.datagrams_received;
      Alcotest.(check bool) "bytes accounted" true
        (st.Transport.bytes_sent = st.Transport.bytes_received && st.Transport.bytes_sent > 0);
      Alcotest.(check int) "no decode errors" 0 st.Transport.decode_errors)

let test_all_constructors_cross_the_socket () =
  let p s seq = Payload.make ~size:s (mid seq) in
  let examples =
    [
      Wire.Data (p 1024 0);
      Wire.Session { max_seq = 41 };
      Wire.Local_request (mid 7);
      Wire.Remote_request { id = mid ~source:3 9; origin = node 1 };
      Wire.Repair (p 17 2);
      Wire.Regional_repair (p 256 3);
      Wire.Search { id = mid 11; origin = node 0 };
      Wire.Have (mid ~source:1 13);
      Wire.Handoff [ p 100 4; p 0 5 ];
      Wire.History [ (node 0, (5, [ 1; 2; 4 ])); (node 1, (-1, [])) ];
      Wire.Gossip [ (node 0, 12); (node 1, 0) ];
    ]
  in
  with_transport ~n:2 (fun t ->
      List.iter (fun m -> Udp.send t ~src:(node 0) ~dst:(node 1) m) examples;
      let got = ref [] in
      let n = Udp.drain t ~handle:(fun ~src:_ ~dst:_ m -> got := m :: !got) in
      Alcotest.(check int) "all messages handed up" (List.length examples) n;
      (* UDP does not reorder on loopback in practice, but do not bet a
         test on it: match as multisets by pairing each sent message
         with some received one *)
      let remaining = ref (List.rev !got) in
      List.iter
        (fun sent ->
          let found = List.exists (fun r -> wire_equal sent r) !remaining in
          Alcotest.(check bool)
            (Format.asprintf "received %a" Wire.pp sent)
            true found;
          let dropped = ref false in
          remaining :=
            List.filter
              (fun r ->
                if (not !dropped) && wire_equal sent r then begin
                  dropped := true;
                  false
                end
                else true)
              !remaining)
        examples)

let test_full_loss_drops_everything () =
  with_transport ~loss:1.0 ~n:2 (fun t ->
      for seq = 0 to 9 do
        Udp.send t ~src:(node 0) ~dst:(node 1) (Wire.Have (mid seq))
      done;
      let n = Udp.drain t ~handle:(fun ~src:_ ~dst:_ _ -> Alcotest.fail "nothing should arrive") in
      Alcotest.(check int) "nothing handed up" 0 n;
      let st = Udp.stats t in
      Alcotest.(check int) "all counted as injected loss" 10 st.Transport.dropped_loss;
      Alcotest.(check int) "nothing hit the kernel" 0 st.Transport.datagrams_sent)

let test_seeded_loss_is_deterministic () =
  let survivors ~seed =
    with_transport ~loss:0.5 ~seed ~n:2 (fun t ->
        for seq = 0 to 99 do
          Udp.send t ~src:(node 0) ~dst:(node 1) (Wire.Have (mid seq))
        done;
        let got = ref [] in
        ignore
          (Udp.drain t ~handle:(fun ~src:_ ~dst:_ m ->
               match m with
               | Wire.Have id -> got := Msg_id.seq id :: !got
               | _ -> Alcotest.fail "expected Have"));
        List.sort compare !got)
  in
  let a = survivors ~seed:11 in
  let b = survivors ~seed:11 in
  let c = survivors ~seed:12 in
  Alcotest.(check (list int)) "same seed, same drop schedule" a b;
  Alcotest.(check bool) "some loss and some delivery" true
    (List.length a > 0 && List.length a < 100);
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_unknown_node_raises () =
  with_transport ~n:2 (fun t ->
      Alcotest.(check bool) "unknown dst" true
        (match Udp.send t ~src:(node 0) ~dst:(node 7) (Wire.Have (mid 0)) with
         | exception Invalid_argument _ -> true
         | () -> false);
      Alcotest.(check bool) "unknown src" true
        (match Udp.send t ~src:(node 7) ~dst:(node 0) (Wire.Have (mid 0)) with
         | exception Invalid_argument _ -> true
         | () -> false);
      Alcotest.(check bool) "port of unknown node" true
        (match Udp.port t (node 7) with
         | exception Invalid_argument _ -> true
         | _ -> false))

(* a fan-out must be indistinguishable from the sends it stands for:
   same per-destination loss draws in the same order, same counters,
   same datagrams. Two transports share a loss seed; one fans each
   message out, the other sends it to the same kept destinations one
   by one. *)
let test_fanout_equals_sends () =
  let n = 6 in
  let src = node 2 in
  let dsts = nodes_upto n in
  let keep round dst = (Node_id.to_int dst + round) mod 3 <> 0 in
  let messages =
    List.init 12 (fun round ->
        if round mod 3 = 2 then Wire.Have (mid round)
        else Wire.Data (Payload.make ~size:(64 * round) (mid round)))
  in
  let run send =
    with_transport ~loss:0.5 ~seed:5 ~n (fun t ->
        List.iteri (fun round msg -> send t ~keep:(keep round) msg) messages;
        let got = ref [] in
        ignore
          (Udp.drain t ~handle:(fun ~src ~dst m ->
               (match m with
                | Wire.Data p ->
                  Alcotest.(check bool) "body intact" true (Payload.intact p)
                | _ -> ());
               got :=
                 Format.asprintf "%d>%d %a" (Node_id.to_int src) (Node_id.to_int dst) Wire.pp m
                 :: !got));
        let st = Udp.stats t in
        (Format.asprintf "%a" Transport.pp_stats st, List.sort String.compare !got))
  in
  let fanned_stats, fanned = run (fun t ~keep msg -> Udp.fanout t ~src dsts ~keep msg) in
  let single_stats, single =
    run (fun t ~keep msg ->
        Array.iter
          (fun dst -> if (not (Node_id.equal dst src)) && keep dst then Udp.send t ~src ~dst msg)
          dsts)
  in
  Alcotest.(check string) "same stats" single_stats fanned_stats;
  Alcotest.(check (list string)) "same datagrams" single fanned;
  Alcotest.(check bool) "the loss schedule both kept and dropped" true
    (List.length fanned > 0 && List.length fanned < List.length messages * (n - 1))

(* ------------------------------------------------------------------ *)
(* Foreign datagrams through a real socket                             *)
(* ------------------------------------------------------------------ *)

(* send raw datagrams to a member's port from a socket the transport
   does not know, then drain *)
let send_foreign t ~dst datagrams =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Udp.port t dst) in
      List.iter
        (fun d -> ignore (Unix.sendto sock d 0 (Bytes.length d) [] addr : int))
        datagrams)

let drain_nothing t =
  Udp.drain t ~handle:(fun ~src:_ ~dst:_ m ->
      Alcotest.failf "handed up %a" Wire.pp m)

let test_empty_datagram_counted () =
  with_transport ~n:2 (fun t ->
      send_foreign t ~dst:(node 1) [ Bytes.empty; Bytes.make 10 'x' ];
      Alcotest.(check int) "nothing handed up" 0 (drain_nothing t);
      let st = Udp.stats t in
      Alcotest.(check int) "both datagrams received" 2 st.Transport.datagrams_received;
      Alcotest.(check int) "both rejected" 2 st.Transport.decode_errors)

let frame_bytes msg =
  let size = Rrmp.Codec.encoded_size msg in
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
  ignore (Rrmp.Codec.encode b ~off:0 msg : int);
  Bytes.init size (Bigarray.Array1.get b)

let test_foreign_and_corrupt_datagrams () =
  let frame = frame_bytes (Wire.Data (Payload.make ~size:200 (mid 3))) in
  let truncated = Bytes.sub frame 0 (Bytes.length frame - 7) in
  let flipped = Bytes.copy frame in
  Bytes.set flipped 9 (Char.chr (Char.code (Bytes.get flipped 9) lxor 0x10));
  let rng = Engine.Rng.create ~seed:77 in
  let noise = Bytes.init 120 (fun _ -> Char.chr (Engine.Rng.int rng 256)) in
  let valid = frame_bytes (Wire.Have (mid 4)) in
  with_transport ~n:3 (fun t ->
      send_foreign t ~dst:(node 2) [ truncated; flipped; noise; valid ];
      Alcotest.(check int) "nothing handed up" 0 (drain_nothing t);
      let st = Udp.stats t in
      Alcotest.(check int) "all four received" 4 st.Transport.datagrams_received;
      Alcotest.(check int) "all four rejected" 4 st.Transport.decode_errors;
      (* the transport still carries its own traffic afterwards *)
      Udp.send t ~src:(node 0) ~dst:(node 2) (Wire.Have (mid 5));
      Alcotest.(check int) "own frame still handed up" 1
        (Udp.drain t ~handle:(fun ~src:_ ~dst:_ _ -> ())))

(* ------------------------------------------------------------------ *)
(* Full protocol recovery over real sockets                            *)
(* ------------------------------------------------------------------ *)

(* Build a member group whose sends go through the UDP transport and
   whose clock is the sim clock, then alternate socket drains with
   1 ms sim steps: datagrams travel for real, timers stay
   deterministic. The harness below is the miniature of bench --net. *)
let test_member_recovery_over_udp () =
  let size = 8 in
  let topology = Topology.single_region ~size in
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:42 in
  let loss = Loss.create Loss.Lossless ~rng:(Engine.Rng.split rng) in
  let net =
    Network.create ~sim ~topology ~latency:Latency.paper_default ~loss
      ~rng:(Engine.Rng.split rng) ()
  in
  with_transport ~n:size (fun transport ->
      let caps = Net.Caps.udp ~transport ~clock:(Net.Clock.of_sim sim) ~topology in
      let members =
        Array.map
          (fun n ->
            Member.create ~net ~config:Config.default ~rng:(Engine.Rng.split rng) ~node:n
              ~caps ())
          (Topology.all_nodes topology)
      in
      let delivery =
        {
          Network.src = node 0;
          Network.dst = node 0;
          Network.msg = Wire.Session { max_seq = 0 };
          Network.sent_at = 0.0;
          Network.cls = "net";
        }
      in
      let dispatch ~src ~dst msg =
        delivery.Network.src <- src;
        delivery.Network.dst <- dst;
        delivery.Network.msg <- msg;
        delivery.Network.sent_at <- Engine.Sim.now sim;
        Member.inject_delivery members.(Node_id.to_int dst) delivery
      in
      let victim = node 5 in
      let sender = members.(0) in
      let id =
        Member.multicast_reaching sender ~size:900
          ~reach:(fun n -> not (Node_id.equal n victim))
          ()
      in
      (* only a session message can reveal the loss (single message, no
         later gap) *)
      Member.send_session sender;
      let victim_m = members.(Node_id.to_int victim) in
      let steps = ref 0 in
      while (not (Member.has_received victim_m id)) && !steps < 5_000 do
        incr steps;
        ignore (Udp.drain transport ~handle:dispatch);
        Engine.Sim.run ~until:(Engine.Sim.now sim +. 1.0) sim
      done;
      (* flush anything still in flight, then check the whole group *)
      ignore (Udp.drain transport ~handle:dispatch);
      Alcotest.(check bool) "victim recovered over real UDP" true
        (Member.has_received victim_m id);
      Array.iter
        (fun m ->
          Alcotest.(check bool)
            (Format.asprintf "member %d has the message" (Node_id.to_int (Member.node m)))
            true (Member.has_received m id))
        members;
      let st = Udp.stats transport in
      (* the initial multicast alone is size-1 datagrams; recovery adds
         at least a probe and a repair *)
      Alcotest.(check bool) "real datagrams flowed" true
        (st.Transport.datagrams_sent > size - 1);
      Alcotest.(check int) "every frame decoded" 0 st.Transport.decode_errors)

let suites =
  [
    ( "net.loopback",
      [
        Alcotest.test_case "datagram round trip" `Quick test_datagram_round_trip;
        Alcotest.test_case "all constructors cross the socket" `Quick
          test_all_constructors_cross_the_socket;
        Alcotest.test_case "loss=1.0 drops everything" `Quick test_full_loss_drops_everything;
        Alcotest.test_case "seeded loss is deterministic" `Quick
          test_seeded_loss_is_deterministic;
        Alcotest.test_case "unknown node raises" `Quick test_unknown_node_raises;
        Alcotest.test_case "fan-out equals sends one by one" `Quick test_fanout_equals_sends;
        Alcotest.test_case "empty datagram counted" `Quick test_empty_datagram_counted;
        Alcotest.test_case "foreign and corrupt datagrams" `Quick
          test_foreign_and_corrupt_datagrams;
        Alcotest.test_case "member loss recovery over UDP" `Quick
          test_member_recovery_over_udp;
      ] );
  ]

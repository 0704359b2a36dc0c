(* Member capabilities over a real transport: IP multicast does not
   exist on loopback, so each multicast primitive is one
   Udp_loopback.fanout, encoded once and sent as one datagram per
   destination (the fan-out a multicast-capable NIC would do for us).
   Sends ignore the traffic class — the transport accounts bytes, not
   classes. *)

let every _ = true

let udp ~transport ~clock ~topology : Rrmp.Member.caps =
  let all = Udp_loopback.nodes transport in
  {
    Rrmp.Member.cap_now = clock;
    cap_unicast = (fun ~cls:_ ~src ~dst msg -> Udp_loopback.send transport ~src ~dst msg);
    cap_regional =
      (fun ~cls:_ ~src ~region msg ->
        Udp_loopback.fanout transport ~src (Topology.members topology region) ~keep:every msg);
    cap_multicast =
      (fun ~cls:_ ~src ~reach msg -> Udp_loopback.fanout transport ~src all ~keep:reach msg);
    cap_multicast_lossy =
      (fun ~cls:_ ~src msg -> Udp_loopback.fanout transport ~src all ~keep:every msg);
  }

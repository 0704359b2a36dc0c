(** Build {!Rrmp.Member.caps} over a UDP transport: the capability
    instantiation that swaps the simulated network out from under a
    member without touching its protocol logic. *)

val udp :
  transport:Udp_loopback.t -> clock:Clock.t -> topology:Topology.t -> Rrmp.Member.caps
(** Sends become real datagrams ([Udp_loopback.send]); each multicast
    primitive is one [Udp_loopback.fanout]: encoded once, then one
    datagram per destination (excluding the sender, matching
    {!Netsim.Network}'s semantics); time reads come from [clock]. Regional fan-out resolves membership through
    [topology] at send time, so churn is honoured after
    {!Rrmp.Member.refresh_view}. *)

(** RRMP — the Randomized Reliable Multicast Protocol with the
    two-phase buffer management of "Optimizing Buffer Management for
    Reliable Multicast" (Xiao, Birman & van Renesse, DSN 2002).

    Start with {!Group} (whole sessions), {!Member} (single nodes), or
    {!Sharded} (the region-sharded 10^5-10^6-member scale path over
    {!Member_soa} struct-of-arrays state);
    tune parameters through {!Config}; observe behaviour through
    {!Events}. *)

module Config = Config
module Payload = Payload
module Wire = Wire
module Codec = Codec
module Buffer = Buffer
module Long_term = Long_term
module Model = Model
module Events = Events
module Member = Member
module Group = Group
module Member_soa = Member_soa
module Sharded = Sharded

(* Reference model for [Protocol.Recv_log.indexed_has]: the list walk
   over a digest that the indexed form replaced, kept as an executable
   specification. O(sources + missing) per probe; the
   protocol.digest_index qchecks compare the two on random digests. *)

module Recv_log = Protocol.Recv_log
module Msg_id = Protocol.Msg_id

let has (digest : Recv_log.digest) id =
  match List.assoc_opt (Msg_id.source id) digest with
  | None -> false
  | Some (horizon, missing) ->
    let seq = Msg_id.seq id in
    seq <= horizon && not (List.mem seq missing)

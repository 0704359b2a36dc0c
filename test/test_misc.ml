(* Coverage for the smaller APIs: wire formatting and sizing, config
   printing, digests, and scheduling corner cases. *)

module Msg_id = Protocol.Msg_id
module Wire = Rrmp.Wire
module Config = Rrmp.Config
module Payload = Rrmp.Payload

let mid ?(source = 0) seq = Msg_id.make ~source:(Node_id.of_int source) ~seq

(* --- wire ------------------------------------------------------------ *)

let test_wire_classes_distinct () =
  let payload = Payload.make (mid 0) in
  let messages =
    [
      Wire.Data payload;
      Wire.Session { max_seq = 1 };
      Wire.Local_request (mid 0);
      Wire.Remote_request { id = mid 0; origin = Node_id.of_int 1 };
      Wire.Repair payload;
      Wire.Regional_repair payload;
      Wire.Search { id = mid 0; origin = Node_id.of_int 1 };
      Wire.Have (mid 0);
      Wire.Handoff [ payload ];
      Wire.History [];
      Wire.Gossip [];
    ]
  in
  let classes = List.map Wire.cls messages in
  Alcotest.(check int) "all classes distinct" (List.length classes)
    (List.length (List.sort_uniq String.compare classes))

let test_wire_bytes () =
  let payload = Payload.make ~size:1000 (mid 0) in
  Alcotest.(check int) "data = header + payload" 1032 (Wire.bytes (Wire.Data payload));
  Alcotest.(check int) "repair same" 1032 (Wire.bytes (Wire.Repair payload));
  Alcotest.(check int) "control small" 64 (Wire.bytes (Wire.Have (mid 0)));
  (* handoff: one 32-byte batch header charged once, plus 24 bytes of
     per-entry framing (entry id + body length — what Codec.encode
     actually emits) and the exact sum of the payload sizes *)
  Alcotest.(check int) "handoff sums payloads" (32 + (2 * 24) + 2000)
    (Wire.bytes (Wire.Handoff [ payload; payload ]));
  Alcotest.(check int) "empty handoff is bare header" 32 (Wire.bytes (Wire.Handoff []));
  Alcotest.(check int) "single-entry handoff" (32 + 24 + 1000)
    (Wire.bytes (Wire.Handoff [ payload ]));
  Alcotest.(check int) "handoff with mixed sizes" (32 + (2 * 24) + 1000 + 16)
    (Wire.bytes (Wire.Handoff [ payload; Payload.make ~size:16 (mid 1) ]));
  Alcotest.(check int) "empty gossip is bare control" 64 (Wire.bytes (Wire.Gossip []));
  Alcotest.(check int) "single-entry gossip" (64 + 16)
    (Wire.bytes (Wire.Gossip [ (Node_id.of_int 3, 7) ]));
  Alcotest.(check bool) "history scales with entries" true
    (Wire.bytes (Wire.History [ (Node_id.of_int 0, (5, [])) ]) > Wire.bytes (Wire.History []));
  (* the per-source missing lists are wire payload too: 64-byte control
     header + 16 per source + 8 per missing seq *)
  Alcotest.(check int) "history charges missing seqs"
    (64 + 16 + (8 * 3))
    (Wire.bytes (Wire.History [ (Node_id.of_int 0, (5, [ 1; 2; 4 ])) ]));
  Alcotest.(check int) "history multi-source"
    (64 + (16 + 8) + 16)
    (Wire.bytes
       (Wire.History [ (Node_id.of_int 0, (5, [ 3 ])); (Node_id.of_int 1, (2, [])) ]))

let test_wire_pp_smoke () =
  let render msg = Format.asprintf "%a" Wire.pp msg in
  Alcotest.(check bool) "data mentions id" true
    (String.length (render (Wire.Data (Payload.make (mid 3)))) > 0);
  Alcotest.(check string) "have" "Have(n0#2)" (render (Wire.Have (mid 2)))

(* --- config printing -------------------------------------------------- *)

let test_config_pp_mentions_policy () =
  let render config = Format.asprintf "%a" Config.pp config in
  Alcotest.(check bool) "two-phase named" true
    (String.length (render Config.default) > 0);
  let fixed = { Config.default with Config.buffering = Config.Fixed_time 100.0 } in
  Alcotest.(check bool) "fixed named" true
    (Astring_like.contains (render fixed) "fixed");
  let hashed = { Config.default with Config.selection = Config.Hashed } in
  Alcotest.(check bool) "hashed named" true (Astring_like.contains (render hashed) "hashed")

let test_config_buffering_name () =
  Alcotest.(check string) "two-phase" "two-phase" (Config.buffering_name Config.Two_phase);
  Alcotest.(check string) "buffer-all" "buffer-all" (Config.buffering_name Config.Buffer_all)

(* --- recv_log digests -------------------------------------------------- *)

let test_digest_has () =
  let log = Protocol.Recv_log.create () in
  ignore (Protocol.Recv_log.note_data log (mid 0));
  ignore (Protocol.Recv_log.note_data log (mid 2));
  let digest = Protocol.Recv_log.digest log in
  let idx = Protocol.Recv_log.index digest in
  (* the list-walk oracle and the indexed form give the same answers *)
  let check name expected id =
    Alcotest.(check bool) (name ^ " (oracle)") expected (Digest_oracle.has digest id);
    Alcotest.(check bool) (name ^ " (indexed)") expected (Protocol.Recv_log.indexed_has idx id)
  in
  check "has 0" true (mid 0);
  check "missing 1" false (mid 1);
  check "has 2" true (mid 2);
  check "beyond horizon" false (mid 5);
  check "unknown source" false (mid ~source:9 0)

(* --- sim corner cases -------------------------------------------------- *)

let test_schedule_at_past_clamps () =
  let sim = Engine.Sim.create () in
  let at = ref (-1.0) in
  ignore
    (Engine.Sim.schedule sim ~delay:10.0 (fun () ->
         ignore (Engine.Sim.schedule_at sim ~at:3.0 (fun () -> at := Engine.Sim.now sim))));
  Engine.Sim.run sim;
  Alcotest.(check (float 1e-9)) "clamped to now" 10.0 !at

let test_fire_time_reported () =
  let sim = Engine.Sim.create () in
  let handle = Engine.Sim.schedule sim ~delay:7.5 ignore in
  Alcotest.(check (float 1e-9)) "fire time" 7.5 (Engine.Sim.fire_time handle)

(* --- payload ----------------------------------------------------------- *)

let test_payload_basics () =
  let p = Payload.make ~size:10 (mid 1) in
  Alcotest.(check int) "size" 10 (Payload.size p);
  Alcotest.(check bool) "id" true (Msg_id.equal (mid 1) (Payload.id p));
  Alcotest.(check int) "default size" 1024 (Payload.size (Payload.make (mid 2)));
  Alcotest.check_raises "negative size" (Invalid_argument "Payload.make: negative size")
    (fun () -> ignore (Payload.make ~size:(-1) (mid 0)))

let suites =
  [
    ( "misc.wire",
      [
        Alcotest.test_case "classes distinct" `Quick test_wire_classes_distinct;
        Alcotest.test_case "bytes" `Quick test_wire_bytes;
        Alcotest.test_case "pp" `Quick test_wire_pp_smoke;
      ] );
    ( "misc.config",
      [
        Alcotest.test_case "pp mentions policy" `Quick test_config_pp_mentions_policy;
        Alcotest.test_case "buffering name" `Quick test_config_buffering_name;
      ] );
    ( "misc.digest", [ Alcotest.test_case "digest_has" `Quick test_digest_has ] );
    ( "misc.sim",
      [
        Alcotest.test_case "schedule_at past clamps" `Quick test_schedule_at_past_clamps;
        Alcotest.test_case "fire time" `Quick test_fire_time_reported;
      ] );
    ( "misc.payload", [ Alcotest.test_case "payload basics" `Quick test_payload_basics ] );
  ]

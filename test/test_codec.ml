(* The binary wire codec: size reconciliation against Wire.bytes,
   round-trip identity, and the never-raise robustness contract on the
   network-facing decode path. *)

module Msg_id = Protocol.Msg_id
module Wire = Rrmp.Wire
module Payload = Rrmp.Payload
module Codec = Rrmp.Codec

let mid ?(source = 0) seq = Msg_id.make ~source:(Node_id.of_int source) ~seq

let node = Node_id.of_int

let fresh_buf n : Codec.buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

(* structural equality strong enough for round trips: payloads compare
   id + size + content checksum *)
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

(* one concrete message per constructor, plus empty-list edge cases *)
let examples () =
  let p s seq = Payload.make ~size:s (mid seq) in
  [
    Wire.Data (p 1024 0);
    Wire.Data (p 0 1);
    Wire.Session { max_seq = 41 };
    Wire.Local_request (mid 7);
    Wire.Remote_request { id = mid ~source:3 9; origin = node 5 };
    Wire.Repair (p 17 2);
    Wire.Regional_repair (p 256 3);
    Wire.Search { id = mid 11; origin = node 2 };
    Wire.Have (mid ~source:1 13);
    Wire.Handoff [ p 100 4; p 0 5; p 33 6 ];
    Wire.Handoff [];
    Wire.History [ (node 0, (5, [ 1; 2; 4 ])); (node 3, (-1, [])); (node 7, (0, [ 9 ])) ];
    Wire.History [];
    Wire.Gossip [ (node 0, 12); (node 9, 0) ];
    Wire.Gossip [];
  ]

let test_sizes_match_wire_bytes () =
  List.iter
    (fun msg ->
      Alcotest.(check int)
        (Format.asprintf "encoded_size = Wire.bytes for %a" Wire.pp msg)
        (Wire.bytes msg) (Codec.encoded_size msg))
    (examples ())

let test_round_trip_units () =
  List.iter
    (fun msg ->
      let size = Codec.encoded_size msg in
      let b = fresh_buf (size + 200) in
      List.iter
        (fun off ->
          let written = Codec.encode b ~off msg in
          Alcotest.(check int) "encode returns encoded_size" size written;
          match Codec.decode b ~off ~len:size with
          | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e)
          | Ok msg' ->
            Alcotest.(check bool)
              (Format.asprintf "round trip %a" Wire.pp msg)
              true (wire_equal msg msg'))
        [ 0; 128 ])
    (examples ())

(* the word-wide copies at every alignment: bodies of 0..40 bytes
   (every residue mod 8, up to five words) at frame offsets 0..8, each
   encoded into a guard-filled buffer, carried through the Bytes
   staging copies and back, and decoded with copied bodies. Each
   buffer has its own guard byte, so a copy that runs long, short or
   misaligned changes a guard or breaks the body pattern. *)
let test_word_copies_every_alignment () =
  let guarded guard n =
    let b = fresh_buf n in
    Bigarray.Array1.fill b guard;
    b
  in
  let check_guards what guard get len ~off ~size =
    for i = 0 to len - 1 do
      if (i < off || i >= off + size) && not (Char.equal (get i) guard) then
        Alcotest.failf "%s: byte %d outside [%d, %d) changed" what i off (off + size)
    done
  in
  let decodes what b ~off ~size ~body =
    match Codec.decode ~copy:true b ~off ~len:size with
    | Ok (Wire.Data p) ->
      Alcotest.(check int) (what ^ ": body size") body (Payload.size p);
      Alcotest.(check bool) (what ^ ": body intact") true (Payload.intact p)
    | Ok _ -> Alcotest.failf "%s: decoded to another constructor" what
    | Error e -> Alcotest.failf "%s: %s" what (Codec.error_to_string e)
  in
  for body = 0 to 40 do
    let size = Codec.encoded_size (Wire.Data (Payload.make ~size:body (mid 0))) in
    for off = 0 to 8 do
      let msg = Wire.Data (Payload.make ~size:body (mid ~source:off body)) in
      let what = Printf.sprintf "body %d at offset %d" body off in
      let len = off + size + 16 in
      let b = guarded '\xa5' len in
      Alcotest.(check int) "encode returns the frame size" size (Codec.encode b ~off msg);
      check_guards (what ^ ", encoded") '\xa5' (Bigarray.Array1.get b) len ~off ~size;
      decodes what b ~off ~size ~body;
      let boff = 8 - off in
      let staged = Bytes.make len '\x5a' in
      Codec.unsafe_blit_to_bytes b off staged boff size;
      check_guards (what ^ ", staged") '\x5a' (Bytes.get staged) len ~off:boff ~size;
      let back = guarded '\xc3' len in
      Codec.unsafe_blit_of_bytes staged boff back off size;
      check_guards (what ^ ", received") '\xc3' (Bigarray.Array1.get back) len ~off ~size;
      decodes (what ^ ", received") back ~off ~size ~body
    done
  done

let test_zero_copy_aliases () =
  let payload = Payload.make ~size:64 (mid 0) in
  let msg = Wire.Data payload in
  let b = fresh_buf 256 in
  let size = Codec.encode b ~off:0 msg in
  (match Codec.decode ~copy:false b ~off:0 ~len:size with
   | Ok (Wire.Data p) ->
     let before = Payload.get p 5 in
     Bigarray.Array1.set b (32 + 5) (Char.chr ((Char.code before + 1) land 0xff));
     Alcotest.(check bool) "shared body sees buffer mutation" true (Payload.get p 5 <> before)
   | _ -> Alcotest.fail "expected Data");
  (* copy:true bodies are independent storage *)
  let size = Codec.encode b ~off:0 msg in
  match Codec.decode ~copy:true b ~off:0 ~len:size with
  | Ok (Wire.Data p) ->
    let before = Payload.get p 7 in
    Bigarray.Array1.set b (32 + 7) (Char.chr ((Char.code before + 1) land 0xff));
    Alcotest.(check bool) "copied body unaffected" true (Char.equal (Payload.get p 7) before);
    Alcotest.(check bool) "copied body intact" true (Payload.intact p)
  | _ -> Alcotest.fail "expected Data"

let test_view_without_read_raises () =
  let d = Codec.create_decoder () in
  Alcotest.check_raises "view on empty decoder"
    (Invalid_argument "Codec.view: the decoder holds no successfully read frame") (fun () ->
      ignore (Codec.view d ~copy:true));
  (* a failed read invalidates the previous frame *)
  let b = fresh_buf 128 in
  let size = Codec.encode b ~off:0 (Wire.Have (mid 3)) in
  (match Codec.read d b ~off:0 ~len:size with
   | Codec.Ok_frame -> ()
   | Codec.Err _ -> Alcotest.fail "read should succeed");
  ignore (Codec.view d ~copy:true);
  (match Codec.read d b ~off:0 ~len:(size - 1) with
   | Codec.Ok_frame -> Alcotest.fail "truncated read should fail"
   | Codec.Err _ -> ());
  Alcotest.check_raises "view after failed read"
    (Invalid_argument "Codec.view: the decoder holds no successfully read frame") (fun () ->
      ignore (Codec.view d ~copy:true))

let test_encode_rejects_bad_values () =
  let b = fresh_buf 256 in
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  raises "negative max_seq" (fun () -> Codec.encode b ~off:0 (Wire.Session { max_seq = -1 }));
  raises "negative heartbeat" (fun () ->
      Codec.encode b ~off:0 (Wire.Gossip [ (node 0, -2) ]));
  raises "horizon below -1" (fun () ->
      Codec.encode b ~off:0 (Wire.History [ (node 0, (-2, [])) ]));
  raises "negative missing seq" (fun () ->
      Codec.encode b ~off:0 (Wire.History [ (node 0, (3, [ -1 ])) ]));
  raises "buffer too small" (fun () -> Codec.encode b ~off:200 (Wire.Have (mid 0)));
  raises "negative offset" (fun () -> Codec.encode b ~off:(-1) (Wire.Have (mid 0)))

(* every single-bit header corruption must be caught by the header
   checksum (the framing fields steer the parser, so they are the
   bytes that must never be trusted when flipped) *)
let test_header_corruption_detected () =
  let msg = Wire.Data (Payload.make ~size:48 (mid 5)) in
  let b = fresh_buf 128 in
  let size = Codec.encode b ~off:0 msg in
  for bit = 0 to (32 * 8) - 1 do
    let byte = bit / 8 in
    let orig = Bigarray.Array1.get b byte in
    Bigarray.Array1.set b byte (Char.chr (Char.code orig lxor (1 lsl (bit mod 8))));
    (match Codec.decode b ~off:0 ~len:size with
     | Ok _ -> Alcotest.failf "header bit flip %d went undetected" bit
     | Error _ -> ());
    Bigarray.Array1.set b byte orig
  done;
  match Codec.decode b ~off:0 ~len:size with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restored frame must decode: %s" (Codec.error_to_string e)

(* ------------------------------------------------------------------ *)
(* qcheck generators over all 11 constructors                          *)
(* ------------------------------------------------------------------ *)

let gen_mid =
  QCheck.Gen.(
    map2
      (fun s q -> Msg_id.make ~source:(Node_id.of_int s) ~seq:q)
      (int_bound 1000) (int_bound 1_000_000))

let gen_payload = QCheck.Gen.(map2 (fun m s -> Payload.make ~size:s m) gen_mid (int_bound 300))

let gen_digest_entry =
  QCheck.Gen.(
    map3
      (fun n h missing -> (Node_id.of_int n, (h - 1, missing)))
      (int_bound 500) (int_bound 50)
      (list_size (int_bound 8) (int_bound 10_000)))

let gen_wire =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Wire.Data p) gen_payload;
        map (fun s -> Wire.Session { max_seq = s }) (int_bound 1_000_000);
        map (fun m -> Wire.Local_request m) gen_mid;
        map2 (fun m o -> Wire.Remote_request { id = m; origin = Node_id.of_int o }) gen_mid
          (int_bound 500);
        map (fun p -> Wire.Repair p) gen_payload;
        map (fun p -> Wire.Regional_repair p) gen_payload;
        map2 (fun m o -> Wire.Search { id = m; origin = Node_id.of_int o }) gen_mid
          (int_bound 500);
        map (fun m -> Wire.Have m) gen_mid;
        map (fun ps -> Wire.Handoff ps) (list_size (int_bound 5) gen_payload);
        map (fun d -> Wire.History d) (list_size (int_bound 5) gen_digest_entry);
        map
          (fun entries ->
            Wire.Gossip (List.map (fun (n, h) -> (Node_id.of_int n, h)) entries))
          (list_size (int_bound 10) (pair (int_bound 500) (int_bound 100_000)));
      ])

let arb_wire = QCheck.make ~print:(Format.asprintf "%a" Wire.pp) gen_wire

let encode_to_fresh msg =
  let size = Codec.encoded_size msg in
  let b = fresh_buf (max 1 size) in
  ignore (Codec.encode b ~off:0 msg);
  (b, size)

let qcheck_round_trip =
  QCheck.Test.make ~count:300 ~name:"decode (encode msg) = msg for all constructors" arb_wire
    (fun msg ->
      let b, size = encode_to_fresh msg in
      match Codec.decode b ~off:0 ~len:size with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" (Codec.error_to_string e)
      | Ok msg' -> wire_equal msg msg')

let qcheck_reencode_identical =
  QCheck.Test.make ~count:200 ~name:"re-encoding a decoded frame is byte-identical" arb_wire
    (fun msg ->
      let b, size = encode_to_fresh msg in
      match Codec.decode b ~off:0 ~len:size with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" (Codec.error_to_string e)
      | Ok msg' ->
        let b', size' = encode_to_fresh msg' in
        if size' <> size then QCheck.Test.fail_reportf "size changed: %d -> %d" size size';
        let same = ref true in
        for i = 0 to size - 1 do
          if not (Char.equal (Bigarray.Array1.get b i) (Bigarray.Array1.get b' i)) then
            same := false
        done;
        !same)

let qcheck_never_raises_on_noise =
  QCheck.Test.make ~count:500 ~name:"decode never raises on arbitrary bytes"
    QCheck.(list_of_size (Gen.int_bound 300) (0 -- 255))
    (fun bytes ->
      let len = List.length bytes in
      let b = fresh_buf (max 1 len) in
      List.iteri (fun i v -> Bigarray.Array1.set b i (Char.chr v)) bytes;
      match Codec.decode b ~off:0 ~len with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let qcheck_rejects_prefixes =
  QCheck.Test.make ~count:200 ~name:"every strict prefix of a frame is rejected, not raised"
    arb_wire (fun msg ->
      let b, size = encode_to_fresh msg in
      let ok = ref true in
      for len = 0 to size - 1 do
        match Codec.decode b ~off:0 ~len with
        | Ok _ -> ok := false
        | Error _ -> ()
        | exception e -> QCheck.Test.fail_reportf "len %d raised %s" len (Printexc.to_string e)
      done;
      !ok)

let qcheck_bit_flips =
  QCheck.Test.make ~count:300 ~name:"single bit flips never raise; header flips are rejected"
    QCheck.(pair arb_wire (0 -- 100_000))
    (fun (msg, r) ->
      let b, size = encode_to_fresh msg in
      if size = 0 then true
      else begin
        let bit = r mod (size * 8) in
        let byte = bit / 8 in
        let orig = Bigarray.Array1.get b byte in
        Bigarray.Array1.set b byte (Char.chr (Char.code orig lxor (1 lsl (bit mod 8))));
        match Codec.decode b ~off:0 ~len:size with
        | Ok _ -> byte >= 32  (* body corruption may decode; framing corruption must not *)
        | Error _ -> true
        | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      end)

let suites =
  [
    ( "rrmp.codec",
      [
        Alcotest.test_case "encoded_size matches Wire.bytes" `Quick test_sizes_match_wire_bytes;
        Alcotest.test_case "round trips" `Quick test_round_trip_units;
        Alcotest.test_case "word copies at every alignment" `Quick
          test_word_copies_every_alignment;
        Alcotest.test_case "zero-copy vs copied bodies" `Quick test_zero_copy_aliases;
        Alcotest.test_case "view without frame raises" `Quick test_view_without_read_raises;
        Alcotest.test_case "encode rejects bad values" `Quick test_encode_rejects_bad_values;
        Alcotest.test_case "header corruption detected" `Quick test_header_corruption_detected;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            qcheck_round_trip;
            qcheck_reencode_identical;
            qcheck_never_raises_on_noise;
            qcheck_rejects_prefixes;
            qcheck_bit_flips;
          ] );
  ]

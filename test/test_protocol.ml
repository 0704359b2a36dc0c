(* Tests for message ids, gap detection, and the reception log. *)

module Msg_id = Protocol.Msg_id
module Gap_detect = Protocol.Gap_detect
module Recv_log = Protocol.Recv_log

let src n = Node_id.of_int n

let id ?(source = 0) seq = Msg_id.make ~source:(src source) ~seq

let msg_id = Alcotest.testable Msg_id.pp Msg_id.equal

(* ------------------------------------------------------------------ *)
(* Msg_id                                                              *)
(* ------------------------------------------------------------------ *)

let test_msg_id_basics () =
  let a = id 3 in
  Alcotest.(check int) "seq" 3 (Msg_id.seq a);
  Alcotest.(check int) "source" 0 (Node_id.to_int (Msg_id.source a));
  Alcotest.(check string) "pp" "n0#3" (Msg_id.to_string a);
  Alcotest.check_raises "negative seq" (Invalid_argument "Msg_id.make: negative sequence number")
    (fun () -> ignore (id (-1)))

let test_msg_id_order () =
  Alcotest.(check bool) "same source orders by seq" true (Msg_id.compare (id 1) (id 2) < 0);
  Alcotest.(check bool) "source dominates" true
    (Msg_id.compare (id ~source:0 9) (id ~source:1 0) < 0);
  Alcotest.(check bool) "equal" true (Msg_id.equal (id 5) (id 5));
  let set = Msg_id.Set.of_list [ id 1; id 1; id 2 ] in
  Alcotest.(check int) "set dedup" 2 (Msg_id.Set.cardinal set)

(* ------------------------------------------------------------------ *)
(* Gap_detect                                                          *)
(* ------------------------------------------------------------------ *)

let test_gap_in_order_no_losses () =
  let d = Gap_detect.create () in
  for seq = 0 to 5 do
    match Gap_detect.note_data d seq with
    | `Fresh [] -> ()
    | `Fresh _ -> Alcotest.fail "no gaps expected in order"
    | `Duplicate -> Alcotest.fail "not a duplicate"
  done;
  Alcotest.(check int) "nothing missing" 0 (Gap_detect.missing_count d);
  Alcotest.(check int) "received all" 6 (Gap_detect.received_count d)

let test_gap_detects_hole () =
  let d = Gap_detect.create () in
  ignore (Gap_detect.note_data d 0);
  (match Gap_detect.note_data d 3 with
   | `Fresh gaps -> Alcotest.(check (list int)) "1 and 2 missing" [ 1; 2 ] gaps
   | `Duplicate -> Alcotest.fail "not a duplicate");
  Alcotest.(check (list int)) "missing" [ 1; 2 ] (Gap_detect.missing d)

let test_gap_reports_each_loss_once () =
  let d = Gap_detect.create () in
  ignore (Gap_detect.note_data d 2);
  (match Gap_detect.note_data d 4 with
   | `Fresh gaps -> Alcotest.(check (list int)) "only the new hole" [ 3 ] gaps
   | `Duplicate -> Alcotest.fail "fresh");
  (* first packet already revealed 0 and 1 *)
  Alcotest.(check (list int)) "all missing" [ 0; 1; 3 ] (Gap_detect.missing d)

let test_gap_duplicate () =
  let d = Gap_detect.create () in
  ignore (Gap_detect.note_data d 1);
  Alcotest.(check bool) "dup flagged" true (Gap_detect.note_data d 1 = `Duplicate)

let test_gap_session_message () =
  let d = Gap_detect.create () in
  ignore (Gap_detect.note_data d 0);
  (* session advertises up to 2: both 1 and 2 (the tail) are missing *)
  Alcotest.(check (list int)) "tail loss detected" [ 1; 2 ]
    (Gap_detect.note_session d ~max_seq:2);
  Alcotest.(check (list int)) "session again adds nothing" []
    (Gap_detect.note_session d ~max_seq:2);
  Alcotest.(check (option int)) "horizon" (Some 2) (Gap_detect.highest_seen d)

let test_gap_repair_clears_missing () =
  let d = Gap_detect.create () in
  ignore (Gap_detect.note_data d 2);
  Gap_detect.note_repaired d 1;
  Alcotest.(check (list int)) "only 0 left" [ 0 ] (Gap_detect.missing d);
  Alcotest.(check bool) "1 received" true (Gap_detect.received d 1);
  (* repairing something never missing is harmless *)
  Gap_detect.note_repaired d 9;
  Alcotest.(check bool) "9 received" true (Gap_detect.received d 9)

let test_gap_data_after_session () =
  let d = Gap_detect.create () in
  Alcotest.(check (list int)) "session first" [ 0; 1 ] (Gap_detect.note_session d ~max_seq:1);
  (match Gap_detect.note_data d 0 with
   | `Fresh gaps -> Alcotest.(check (list int)) "no new gaps" [] gaps
   | `Duplicate -> Alcotest.fail "fresh");
  Alcotest.(check (list int)) "1 still missing" [ 1 ] (Gap_detect.missing d)

let qcheck_gap_invariant =
  QCheck.Test.make ~name:"received+missing partition the horizon" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 30) (int_bound 40))
    (fun seqs ->
      let d = Gap_detect.create () in
      List.iter (fun seq -> ignore (Gap_detect.note_data d seq)) seqs;
      match Gap_detect.highest_seen d with
      | None -> false
      | Some h ->
        let missing = Gap_detect.missing d in
        List.for_all (fun s -> s <= h && not (Gap_detect.received d s)) missing
        && List.length missing + Gap_detect.received_count d >= h + 1)

(* ------------------------------------------------------------------ *)
(* Model tests: windowed detector vs the set-based oracle              *)
(* ------------------------------------------------------------------ *)

(* an event is (tag, seq): tags 0-3 deliver data, 4 is a session
   advertisement, 5-6 a repair — data-heavy like real traffic *)
let apply_event d o (tag, seq) =
  match tag mod 7 with
  | 4 -> Gap_detect.note_session d ~max_seq:seq = Gap_oracle.note_session o ~max_seq:seq
  | 5 | 6 ->
    Gap_detect.note_repaired d seq;
    Gap_oracle.note_repaired o seq;
    true
  | _ -> Gap_detect.note_data d seq = Gap_oracle.note_data o seq

let observables_agree d o =
  Gap_detect.missing d = Gap_oracle.missing o
  && Gap_detect.missing_count d = Gap_oracle.missing_count o
  && Gap_detect.received_count d = Gap_oracle.received_count o
  && Gap_detect.highest_seen d = Gap_oracle.highest_seen o
  && Gap_detect.digest d = Gap_oracle.digest o

let qcheck_gap_model =
  QCheck.Test.make ~name:"windowed gap-detect = set oracle (every observable)"
    ~count:1_000
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_bound 6) (int_bound 900)))
    (fun events ->
      let d = Gap_detect.create () in
      let o = Gap_oracle.create () in
      List.for_all
        (fun ev ->
          apply_event d o ev
          && observables_agree d o
          && List.for_all
               (fun s -> Gap_detect.received d s = Gap_oracle.received o s)
               [ 0; 1; 7; 63; 511; 512; 901 ])
        events)

(* seqs drawn far apart force the bitset window to slide and regrow *)
let qcheck_gap_model_wide =
  QCheck.Test.make ~name:"windowed gap-detect = set oracle (sparse seqs)" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 25) (pair (int_bound 6) (int_bound 20_000)))
    (fun events ->
      let d = Gap_detect.create () in
      let o = Gap_oracle.create () in
      List.for_all (fun ev -> apply_event d o ev && observables_agree d o) events)

let qcheck_digest_index =
  QCheck.Test.make ~name:"indexed digest = list digest" ~count:1_000
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 6)
           (pair (int_bound 8)
              (pair (int_bound 30) (list_of_size Gen.(int_range 0 10) (int_bound 30)))))
        (list_of_size Gen.(int_range 1 20) (pair (int_bound 9) (int_bound 31))))
    (fun (raw, queries) ->
      let digest =
        List.map
          (fun (s, (h, miss)) -> (src s, (h, List.sort_uniq Int.compare miss)))
          raw
        |> List.sort_uniq (fun (a, _) (b, _) -> Node_id.compare a b)
      in
      let idx = Recv_log.index digest in
      List.for_all
        (fun (s, seq) ->
          let q = id ~source:s seq in
          Recv_log.digest_has digest q = Recv_log.indexed_has idx q)
        queries)

(* the indexed form built from a live log agrees with the list form *)
let qcheck_digest_index_from_log =
  QCheck.Test.make ~name:"indexed digest = list digest (live log)" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_bound 2) (int_bound 50)))
    (fun events ->
      let log = Recv_log.create () in
      List.iter (fun (s, seq) -> ignore (Recv_log.note_data log (id ~source:s seq))) events;
      let digest = Recv_log.digest log in
      let idx = Recv_log.index digest in
      List.for_all
        (fun s ->
          List.for_all
            (fun seq ->
              let q = id ~source:s seq in
              Recv_log.digest_has digest q = Recv_log.indexed_has idx q)
            (List.init 52 Fun.id))
        [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Recv_log                                                            *)
(* ------------------------------------------------------------------ *)

let test_recv_log_multi_source () =
  let log = Recv_log.create () in
  ignore (Recv_log.note_data log (id ~source:0 1));
  ignore (Recv_log.note_data log (id ~source:1 2));
  Alcotest.(check (list msg_id)) "gaps per source"
    [ id ~source:0 0; id ~source:1 0; id ~source:1 1 ]
    (Recv_log.missing log);
  Alcotest.(check (list int)) "sources" [ 0; 1 ]
    (List.map Node_id.to_int (Recv_log.sources log))

let test_recv_log_fresh_losses () =
  let log = Recv_log.create () in
  match Recv_log.note_data log (id 2) with
  | Recv_log.Fresh losses ->
    Alcotest.(check (list msg_id)) "losses 0,1" [ id 0; id 1 ] losses
  | Recv_log.Duplicate -> Alcotest.fail "fresh"

let test_recv_log_duplicates_counted () =
  let log = Recv_log.create () in
  ignore (Recv_log.note_data log (id 0));
  Alcotest.(check bool) "dup" true (Recv_log.note_data log (id 0) = Recv_log.Duplicate);
  Alcotest.(check bool) "useful repair" true (Recv_log.note_repaired log (id 1));
  Alcotest.(check bool) "dup repair" false (Recv_log.note_repaired log (id 1));
  Alcotest.(check int) "two duplicates" 2 (Recv_log.duplicates log)

let test_recv_log_session () =
  let log = Recv_log.create () in
  let losses = Recv_log.note_session log ~source:(src 0) ~max_seq:1 in
  Alcotest.(check (list msg_id)) "all missing" [ id 0; id 1 ] losses;
  Alcotest.(check int) "missing count" 2 (Recv_log.missing_count log);
  Alcotest.(check int) "received none" 0 (Recv_log.received_count log)

let suites =
  [
    ( "protocol.msg_id",
      [
        Alcotest.test_case "basics" `Quick test_msg_id_basics;
        Alcotest.test_case "ordering" `Quick test_msg_id_order;
      ] );
    ( "protocol.gap_detect",
      [
        Alcotest.test_case "in order" `Quick test_gap_in_order_no_losses;
        Alcotest.test_case "detects hole" `Quick test_gap_detects_hole;
        Alcotest.test_case "reports once" `Quick test_gap_reports_each_loss_once;
        Alcotest.test_case "duplicate" `Quick test_gap_duplicate;
        Alcotest.test_case "session message" `Quick test_gap_session_message;
        Alcotest.test_case "repair clears" `Quick test_gap_repair_clears_missing;
        Alcotest.test_case "data after session" `Quick test_gap_data_after_session;
        QCheck_alcotest.to_alcotest qcheck_gap_invariant;
      ] );
    ( "protocol.gap_model",
      [
        QCheck_alcotest.to_alcotest qcheck_gap_model;
        QCheck_alcotest.to_alcotest qcheck_gap_model_wide;
      ] );
    ( "protocol.digest_index",
      [
        QCheck_alcotest.to_alcotest qcheck_digest_index;
        QCheck_alcotest.to_alcotest qcheck_digest_index_from_log;
      ] );
    ( "protocol.recv_log",
      [
        Alcotest.test_case "multi source" `Quick test_recv_log_multi_source;
        Alcotest.test_case "fresh losses" `Quick test_recv_log_fresh_losses;
        Alcotest.test_case "duplicates" `Quick test_recv_log_duplicates_counted;
        Alcotest.test_case "session" `Quick test_recv_log_session;
      ] );
  ]

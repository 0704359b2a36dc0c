(* Wire-arena equivalence: the interned hot-path cells must be
   indistinguishable from fresh constructions.

   The qcheck suites hold the two representations in lockstep over
   structural equality, Wire.bytes, Wire.cls and constructor dispatch,
   and pin the interning contract itself: a re-fetch is physically the
   same cell, and a payload-carrying cell is revalidated by pointer so
   a re-obtained message body can never resurrect a stale cell. The
   acceptance gate runs every registry experiment with the arena
   process-default on and off and requires byte-identical reports. *)

module Wire = Rrmp.Wire
module Arena = Rrmp.Wire_arena
module Payload = Rrmp.Payload
module Msg_id = Protocol.Msg_id

let mid ?(source = 0) seq = Msg_id.make ~source:(Node_id.of_int source) ~seq

let origin = Node_id.of_int 9

let arena () = Arena.create ~origin ()

(* run [f] with the process-wide arena switch forced to [enabled] *)
let with_arena enabled f =
  let saved = Arena.default_enabled () in
  Arena.set_default_enabled enabled;
  Fun.protect ~finally:(fun () -> Arena.set_default_enabled saved) f

(* every hot-path constructor, as (fresh construction, arena fetch)
   thunks over the same inputs *)
let hot_pairs t p ~max_seq =
  let id = Payload.id p in
  [
    ("data", Wire.Data p, Arena.data t p);
    ("repair", Wire.Repair p, Arena.repair t p);
    ("regional", Wire.Regional_repair p, Arena.regional_repair t p);
    ("local-req", Wire.Local_request id, Arena.local_request t id);
    ("remote-req", Wire.Remote_request { id; origin }, Arena.remote_request t id);
    ("session", Wire.Session { max_seq }, Arena.session t ~max_seq);
  ]

(* structural equality is safe here: payload bodies live in Bigarrays,
   but Wire.t compares the payload handles' scalar fields and the
   Bigarray custom blocks compare by their (equal) contents *)
let lockstep_prop (seq, size, max_seq) =
  let t = arena () in
  let p = Payload.make ~size (mid seq) in
  List.for_all
    (fun (name, fresh, cell) ->
      if cell <> fresh then QCheck.Test.fail_reportf "%s: arena cell <> fresh" name;
      if Wire.bytes cell <> Wire.bytes fresh then
        QCheck.Test.fail_reportf "%s: bytes differ" name;
      if not (String.equal (Wire.cls cell) (Wire.cls fresh)) then
        QCheck.Test.fail_reportf "%s: cls differs" name;
      true)
    (hot_pairs t p ~max_seq)

(* dispatch: the arena cell must select the same match arm *)
let dispatch_prop (seq, size, max_seq) =
  let t = arena () in
  let p = Payload.make ~size (mid seq) in
  let arm = function
    | Wire.Data _ -> 0
    | Wire.Session _ -> 1
    | Wire.Local_request _ -> 2
    | Wire.Remote_request _ -> 3
    | Wire.Repair _ -> 4
    | Wire.Regional_repair _ -> 5
    | Wire.Search _ | Wire.Have _ | Wire.Handoff _ | Wire.History _ | Wire.Gossip _ -> 6
  in
  List.for_all (fun (_, fresh, cell) -> arm cell = arm fresh) (hot_pairs t p ~max_seq)

(* a steady-state resend is the SAME cell: the allocation claim *)
let reuse_prop (seq, size) =
  let t = arena () in
  let p = Payload.make ~size (mid seq) in
  let id = Payload.id p in
  Arena.data t p == Arena.data t p
  && Arena.repair t p == Arena.repair t p
  && Arena.regional_repair t p == Arena.regional_repair t p
  && Arena.local_request t id == Arena.local_request t id
  && Arena.remote_request t id == Arena.remote_request t id
  && Arena.session t ~max_seq:seq == Arena.session t ~max_seq:seq

(* pointer revalidation: re-obtaining a body (discard, then repair)
   rebuilds the cell around the new payload record *)
let revalidation_prop (seq, size) =
  let t = arena () in
  let p = Payload.make ~size (mid seq) in
  let stale = Arena.repair t p in
  let p' = Payload.make ~size (mid seq) in
  let cell = Arena.repair t p' in
  (match cell with
   | Wire.Repair q when q == p' -> ()
   | Wire.Repair _ -> QCheck.Test.fail_report "cell wraps the stale payload"
   | _ -> QCheck.Test.fail_report "not a Repair cell");
  (* and the rebuilt cell is now the interned one *)
  cell != stale && cell == Arena.repair t p'

(* disabled arena (the reference path): fresh, structurally equal
   values on every call, never the same cell twice *)
let disabled_prop (seq, size) =
  let t = with_arena false arena in
  let p = Payload.make ~size (mid seq) in
  Arena.data t p = Wire.Data p
  && Arena.data t p != Arena.data t p
  && Arena.session t ~max_seq:seq != Arena.session t ~max_seq:seq

let triple = QCheck.(triple (0 -- 200) (1 -- 64) (0 -- 200))

let pair = QCheck.(pair (0 -- 200) (1 -- 64))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:200 ~name:"arena cells lockstep with fresh wire values" triple
        lockstep_prop;
      QCheck.Test.make ~count:200 ~name:"arena cells dispatch identically" triple dispatch_prop;
      QCheck.Test.make ~count:200 ~name:"resends return the interned cell" pair reuse_prop;
      QCheck.Test.make ~count:200 ~name:"stale payload cells are rebuilt" pair revalidation_prop;
      QCheck.Test.make ~count:200 ~name:"disabled arena builds fresh equal values" pair
        disabled_prop;
    ]

(* session monotone cache: only the latest advertisement is retained *)
let test_session_cache () =
  let t = arena () in
  let a = Arena.session t ~max_seq:3 in
  Alcotest.(check bool) "same max_seq is the same cell" true (a == Arena.session t ~max_seq:3);
  let b = Arena.session t ~max_seq:4 in
  Alcotest.(check bool) "advancing rebuilds" true (a != b);
  Alcotest.(check bool) "new cell is cached" true (b == Arena.session t ~max_seq:4)

(* ------------------------------------------------------------------ *)
(* Registry-wide report identity with the arena on and off             *)
(* ------------------------------------------------------------------ *)

(* regression for the typed-lint P finding: the kill switch used to be
   a plain bool ref sampled by [create], which runs on pool worker
   domains when sharded runs build their member state in parallel — it
   is Atomic.t now, and a flip on the main domain must be visible to
   arenas created inside worker tasks. Interning is observable as
   physical equality of a re-fetch, so each task reports whether its
   arena came up disabled. *)
let test_kill_switch_reaches_workers () =
  with_arena false (fun () ->
    let pool = Engine.Pool.create ~workers:2 () in
    Fun.protect
      ~finally:(fun () -> Engine.Pool.shutdown pool)
      (fun () ->
        let n = 16 in
        let disabled = Array.make n false in
        Engine.Pool.parallel_for pool ~n (fun i ->
            let t = Arena.create ~origin () in
            let p = Payload.make ~size:8 (mid i) in
            disabled.(i) <- not (Arena.data t p == Arena.data t p));
        Alcotest.(check bool) "every worker-created arena saw the flip" true
          (Array.for_all Fun.id disabled)))

let render report = Format.asprintf "%a" Experiments.Report.pp report

(* Acceptance gate (the arena analogue of the -j and --shards gates):
   for EVERY registry experiment, the quick-mode report with the wire
   arena disabled is byte-identical to the default interned path. *)
let test_registry_reports_arena_invariant () =
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      let on = with_arena true (fun () -> render (e.Experiments.Registry.run ~quick:true)) in
      let off = with_arena false (fun () -> render (e.Experiments.Registry.run ~quick:true)) in
      Alcotest.(check string)
        (e.Experiments.Registry.id ^ " report identical with arena on and off")
        on off)
    Experiments.Registry.all

let suites =
  [
    ( "rrmp.wire_arena",
      qsuite
      @ [
          Alcotest.test_case "session cell caches the latest advertisement" `Quick
            test_session_cache;
          Alcotest.test_case "kill switch is atomic across worker domains" `Quick
            test_kill_switch_reaches_workers;
          Alcotest.test_case "registry reports identical with arena on/off" `Slow
            test_registry_reports_arena_invariant;
        ] );
  ]

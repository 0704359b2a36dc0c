type t = {
  per_source : Gap_detect.t Node_id.Table.t;
  mutable duplicates : int;
}

type verdict = Fresh of Msg_id.t list | Duplicate

let create () = { per_source = Node_id.Table.create 4; duplicates = 0 }

(* find (not find_opt): the steady-state hit costs no [Some] box, so
   duplicate-delivery probes stay allocation-free *)
let detector t source =
  match Node_id.Table.find t.per_source source with
  | d -> d
  | exception Not_found ->
    let d = Gap_detect.create () in
    Node_id.Table.add t.per_source source d;
    d

let ids_of source seqs = List.map (fun seq -> Msg_id.make ~source ~seq) seqs

let note_data t id =
  let source = Msg_id.source id in
  match Gap_detect.note_data (detector t source) (Msg_id.seq id) with
  | `Duplicate ->
    t.duplicates <- t.duplicates + 1;
    Duplicate
  | `Fresh gaps -> Fresh (ids_of source gaps)

let note_session t ~source ~max_seq =
  ids_of source (Gap_detect.note_session (detector t source) ~max_seq)

let note_repaired t id =
  let d = detector t (Msg_id.source id) in
  if Gap_detect.received d (Msg_id.seq id) then begin
    t.duplicates <- t.duplicates + 1;
    false
  end
  else begin
    Gap_detect.note_repaired d (Msg_id.seq id);
    true
  end

let received t id = Gap_detect.received (detector t (Msg_id.source id)) (Msg_id.seq id)

let[@lint.allow
     "D2 generic per-source fold: every exported consumer either sorts the result \
      (missing, sources, digest) or accumulates commutatively (counts)"] fold f t init =
  Node_id.Table.fold (fun source d acc -> f source d acc) t.per_source init

let missing t =
  fold (fun source d acc -> List.rev_append (ids_of source (Gap_detect.missing d)) acc) t []
  |> List.sort Msg_id.compare

let missing_count t = fold (fun _ d acc -> acc + Gap_detect.missing_count d) t 0

let received_count t = fold (fun _ d acc -> acc + Gap_detect.received_count d) t 0

let duplicates t = t.duplicates

let sources t = fold (fun source _ acc -> source :: acc) t [] |> List.sort Node_id.compare

type digest = (Node_id.t * (int * int list)) list

let digest t =
  fold (fun source d acc -> (source, Gap_detect.digest d) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> Node_id.compare a b)

(* indexed digest: per-source (horizon, sorted missing array), sorted
   by source, so membership probes are two binary searches *)
type indexed = (Node_id.t * int * int array) array

let index digest =
  let arr =
    Array.of_list
      (List.map
         (fun (source, (horizon, missing)) -> (source, horizon, Array.of_list missing))
         digest)
  in
  (* wire digests are already source-sorted with ascending missing
     lists; sort defensively so the index never depends on that *)
  Array.sort (fun (a, _, _) (b, _, _) -> Node_id.compare a b) arr;
  Array.iter (fun (_, _, m) -> Array.sort Int.compare m) arr;
  arr

let mem_sorted (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && Array.unsafe_get a !lo = x

let indexed_has (idx : indexed) id =
  let source = Msg_id.source id in
  let lo = ref 0 and hi = ref (Array.length idx) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let src, _, _ = Array.unsafe_get idx mid in
    if Node_id.compare src source < 0 then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length idx
  &&
  let src, horizon, missing = Array.unsafe_get idx !lo in
  Node_id.equal src source
  &&
  let seq = Msg_id.seq id in
  seq <= horizon && not (mem_sorted missing seq)

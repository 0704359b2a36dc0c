(* Hierarchical timer wheel.

   Three levels of power-of-two slot arrays bucket entries by integer
   tick (= time / granularity):

     level 0: 256 slots x 1 tick        (the fine window)
     level 1:  64 slots x 256 ticks
     level 2:  64 slots x 16384 ticks

   for a total horizon of 2^20 ticks past the cursor. [add] and lazy
   cancellation are O(1); entries in coarse slots cascade down exactly
   once per level as the cursor crosses window boundaries.

   Exact ordering: buckets are unsorted; when the cursor reaches a
   non-empty slot its entries are sorted once (by the caller-supplied
   total order, normally (time, seq)) into the [ready] list, which is
   drained front-first. Entries added behind the cursor — including
   "now"-ish events scheduled while draining — are merge-inserted into
   [ready], so pop order equals the global total order regardless of
   bucketing. *)

let lv0_bits = 8
let lv0_slots = 1 lsl lv0_bits (* 256 *)
let lv1_bits = 6
let lv1_slots = 1 lsl lv1_bits (* 64 *)
let lv2_bits = 6
let lv2_slots = 1 lsl lv2_bits (* 64 *)
let lv1_span = lv0_slots (* ticks per level-1 slot *)
let lv2_span = lv0_slots * lv1_slots (* ticks per level-2 slot *)
let horizon_ticks = lv0_slots * lv1_slots * lv2_slots (* 2^20 *)

type 'a t = {
  granularity : float;
  time_of : 'a -> float;
  compare : 'a -> 'a -> int;
  lv0 : 'a list array;
  lv1 : 'a list array;
  lv2 : 'a list array;
  mutable lv0_lo : int; (* window starts, aligned to the level span *)
  mutable lv1_lo : int;
  mutable lv2_lo : int;
  mutable cursor : int; (* next tick not yet drained; within the lv0 window *)
  mutable c0 : int; (* entries per level *)
  mutable c1 : int;
  mutable c2 : int;
  mutable ready : 'a list; (* drained entries, sorted by [compare] *)
  mutable ready_len : int;
}

let create ?(granularity = 1.0) ?(start = 0.0) ~time_of ~compare () =
  if granularity <= 0.0 then invalid_arg "Wheel.create: granularity must be positive";
  if start < 0.0 then invalid_arg "Wheel.create: start must be non-negative";
  let tick = int_of_float (start /. granularity) in
  {
    granularity;
    time_of;
    compare;
    lv0 = Array.make lv0_slots [];
    lv1 = Array.make lv1_slots [];
    lv2 = Array.make lv2_slots [];
    lv0_lo = tick land lnot (lv1_span - 1);
    lv1_lo = tick land lnot (lv2_span - 1);
    lv2_lo = tick land lnot (horizon_ticks - 1);
    cursor = tick;
    c0 = 0;
    c1 = 0;
    c2 = 0;
    ready = [];
    ready_len = 0;
  }

let length t = t.c0 + t.c1 + t.c2 + t.ready_len

let tick_of t at = int_of_float (at /. t.granularity)

(* re-align every window so [tick] sits at the cursor; only valid when
   the wheel is empty *)
let rebase t tick =
  t.cursor <- tick;
  t.lv0_lo <- tick land lnot (lv1_span - 1);
  t.lv1_lo <- tick land lnot (lv2_span - 1);
  t.lv2_lo <- tick land lnot (horizon_ticks - 1)

let rec insert_sorted cmp v = function
  | [] -> [ v ]
  | x :: rest as l -> if cmp v x <= 0 then v :: l else x :: insert_sorted cmp v rest

(* place an entry whose tick is >= cursor into the right level bucket *)
let place t tick v =
  if tick < t.lv0_lo + lv1_span then begin
    let i = tick land (lv0_slots - 1) in
    t.lv0.(i) <- v :: t.lv0.(i);
    t.c0 <- t.c0 + 1
  end
  else if tick < t.lv1_lo + lv2_span then begin
    let i = (tick lsr lv0_bits) land (lv1_slots - 1) in
    t.lv1.(i) <- v :: t.lv1.(i);
    t.c1 <- t.c1 + 1
  end
  else begin
    let i = (tick lsr (lv0_bits + lv1_bits)) land (lv2_slots - 1) in
    t.lv2.(i) <- v :: t.lv2.(i);
    t.c2 <- t.c2 + 1
  end

let add t v =
  let tick = tick_of t (t.time_of v) in
  if t.c0 = 0 && t.c1 = 0 && t.c2 = 0 && t.ready_len = 0 && tick > t.cursor then
    (* empty wheel: jump the windows straight to the new entry instead
       of cascading across the gap later *)
    rebase t tick;
  if tick < t.cursor then begin
    (* behind the cursor (the slot was already drained): merge straight
       into the ready list, preserving the total order *)
    t.ready <- insert_sorted t.compare v t.ready;
    t.ready_len <- t.ready_len + 1;
    true
  end
  else if tick >= t.lv2_lo + horizon_ticks then false
  else begin
    place t tick v;
    true
  end

(* move one coarse slot's entries down a level; their ticks all lie in
   the window the cursor just entered *)
let cascade t entries count_field =
  (match count_field with
   | `C1 n -> t.c1 <- t.c1 - n
   | `C2 n -> t.c2 <- t.c2 - n);
  List.iter (fun v -> place t (tick_of t (t.time_of v)) v) entries

(* the cursor reached the end of the level-0 window: shift windows and
   cascade the next coarse slot(s) down *)
let shift_windows t =
  t.lv0_lo <- t.lv0_lo + lv1_span;
  if t.lv0_lo = t.lv1_lo + lv2_span then begin
    t.lv1_lo <- t.lv1_lo + lv2_span;
    if t.lv1_lo = t.lv2_lo + horizon_ticks then t.lv2_lo <- t.lv2_lo + horizon_ticks;
    let i2 = (t.lv1_lo lsr (lv0_bits + lv1_bits)) land (lv2_slots - 1) in
    let entries = t.lv2.(i2) in
    if entries <> [] then begin
      t.lv2.(i2) <- [];
      cascade t entries (`C2 (List.length entries))
    end
  end;
  let i1 = (t.lv0_lo lsr lv0_bits) land (lv1_slots - 1) in
  let entries = t.lv1.(i1) in
  if entries <> [] then begin
    t.lv1.(i1) <- [];
    cascade t entries (`C1 (List.length entries))
  end

(* advance the cursor until [ready] is non-empty or the wheel drains *)
let refill t =
  while t.ready_len = 0 && t.c0 + t.c1 + t.c2 > 0 do
    if t.c0 = 0 then begin
      (* nothing in the fine window: jump to its end and cascade *)
      t.cursor <- t.lv0_lo + lv1_span;
      shift_windows t
    end
    else begin
      let i = t.cursor land (lv0_slots - 1) in
      let bucket = t.lv0.(i) in
      if bucket <> [] then begin
        t.lv0.(i) <- [];
        let n = List.length bucket in
        t.c0 <- t.c0 - n;
        t.ready <- (match bucket with [ _ ] -> bucket | _ -> List.sort t.compare bucket);
        t.ready_len <- n
      end;
      t.cursor <- t.cursor + 1;
      if t.cursor = t.lv0_lo + lv1_span then shift_windows t
    end
  done

let top t ~default =
  if t.ready_len = 0 then refill t;
  match t.ready with [] -> default | x :: _ -> x

let drop_head t =
  match t.ready with
  | [] -> ()
  | _ :: rest ->
    t.ready <- rest;
    t.ready_len <- t.ready_len - 1

let pop t =
  if t.ready_len = 0 then refill t;
  match t.ready with
  | [] -> None
  | x :: rest ->
    t.ready <- rest;
    t.ready_len <- t.ready_len - 1;
    Some x

let filter_level slots keep =
  let removed = ref 0 in
  Array.iteri
    (fun i bucket ->
      match bucket with
      | [] -> ()
      | bucket ->
        let kept = List.filter keep bucket in
        removed := !removed + (List.length bucket - List.length kept);
        slots.(i) <- kept)
    slots;
  !removed

let filter_in_place t keep =
  t.c0 <- t.c0 - filter_level t.lv0 keep;
  t.c1 <- t.c1 - filter_level t.lv1 keep;
  t.c2 <- t.c2 - filter_level t.lv2 keep;
  let ready = List.filter keep t.ready in
  t.ready <- ready;
  t.ready_len <- List.length ready

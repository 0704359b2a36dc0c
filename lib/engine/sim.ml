(* Discrete-event simulation driver.

   One queue, specialised to [handle]: a hierarchical timer wheel whose
   buckets are chains linked through each handle's mutable [next]
   field, so scheduling allocates the handle and nothing else. Three
   levels of slots bucket events by integer tick (1 tick = 1 ms):

     level 0: 256 slots x 1 tick        (the fine window)
     level 1:  64 slots x 256 ticks
     level 2:  64 slots x 16384 ticks   (a 2^20-tick window)

   Buckets are unsorted; an event moves down at most once per level as
   the cursor crosses window boundaries. When the cursor reaches a
   non-empty level-0 slot, its chain is merge-sorted in place by
   (fire-time, seq) into the ready chain, which is popped front-first.
   An event scheduled behind the cursor (its slot was already drained,
   e.g. a "now" event scheduled while draining) is merge-inserted into
   the ready chain, the only chain kept in order. An empty queue's
   windows move to the clock. Events
   past level 2's window wait unsorted on the far chain, which is
   re-bucketed each time that window turns. Every handle carries a
   globally increasing sequence number, so execution order is exactly
   (fire-time, seq): FIFO among events scheduled for the same instant.

   Cancellation is lazy (a state flip); cancelled entries are reaped
   when popped, or in bulk by a compaction pass once they exceed half of
   the pending queue. *)

(* state values: 0 = pending, 1 = cancelled, 2 = fired *)
type handle = {
  at : float;
  seq : int;
  action : unit -> unit;
  mutable state : int;
  cancels : int ref; (* owning sim's count of cancelled-but-queued events *)
  mutable next : handle; (* chain link while queued; [never] otherwise *)
}

(* a pre-fired handle shared by everyone: it ends every chain, and lets
   "no timer armed" be a plain handle-valued field instead of an
   option, so hot state machines re-arm timers without boxing
   [Some handle] every round. Nothing ever writes to it. *)
let rec never =
  { at = infinity; seq = max_int; action = ignore; state = 2; cancels = ref 0; next = never }

let lv0_bits = 8
let lv1_bits = 6
let lv2_bits = 6
let lv0_slots = 1 lsl lv0_bits (* 256 *)
let lv1_slots = 1 lsl lv1_bits (* 64 *)
let lv2_slots = 1 lsl lv2_bits (* 64 *)
let lv1_span = lv0_slots (* ticks per level-1 slot *)
let lv2_span = lv0_slots * lv1_slots (* ticks per level-2 slot *)
let horizon = lv2_span * lv2_slots (* 2^20: level 2's window *)

(* [first] holds the level-0 slots, then level 1's, then level 2's *)
let lv1_base = lv0_slots
let lv2_base = lv0_slots + lv1_slots

(* later times (infinity included) share the last tick and order
   inside its bucket *)
let max_tick = 1 lsl 52

let[@inline] tick_of at = if at < 0x1p52 then int_of_float at else max_tick

type t = {
  mutable clock : float;
  first : handle array; (* bucket chain heads; [never] when empty *)
  mutable ready : handle; (* drained events in (at, seq) order *)
  mutable far : handle; (* beyond level 2's window, unsorted *)
  mutable cursor : int; (* next tick not yet drained; in the level-0 window *)
  mutable lv0_lo : int; (* window starts, aligned to the level span *)
  mutable lv1_lo : int;
  mutable lv2_lo : int;
  mutable n0 : int; (* handles in level 0 *)
  mutable n_far : int; (* handles on the far chain *)
  mutable queued : int; (* every queued handle, cancelled ones included *)
  cancels : int ref;
  mutable next_seq : int;
  mutable executed : int;
}

let create ?(now = 0.0) () =
  (* the windows are placed by the first schedule, which finds the
     queue empty *)
  {
    clock = now;
    first = Array.make (lv2_base + lv2_slots) never;
    ready = never;
    far = never;
    cursor = 0;
    lv0_lo = 0;
    lv1_lo = 0;
    lv2_lo = 0;
    n0 = 0;
    n_far = 0;
    queued = 0;
    cancels = ref 0;
    next_seq = 0;
    executed = 0;
  }

let now t = t.clock

let pending t = t.queued

let cancelled_pending t = !(t.cancels)

let[@inline] before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

(* re-align every window so [tick] sits at the cursor; only valid when
   no queued handle has a tick below [tick] *)
let rebase t tick =
  t.cursor <- tick;
  t.lv0_lo <- tick land lnot (lv1_span - 1);
  t.lv1_lo <- tick land lnot (lv2_span - 1);
  t.lv2_lo <- tick land lnot (horizon - 1)

(* pointer stores go through the write barrier: skip the ones that
   would not change anything *)
let[@inline] link h next = if h.next != next then h.next <- next

let[@inline] push t i h =
  link h t.first.(i);
  t.first.(i) <- h

(* file a handle whose tick is >= cursor in its level's bucket *)
let place t tick h =
  if tick < t.lv0_lo + lv1_span then begin
    push t (tick land (lv0_slots - 1)) h;
    t.n0 <- t.n0 + 1
  end
  else if tick < t.lv1_lo + lv2_span then
    push t (lv1_base + ((tick lsr lv0_bits) land (lv1_slots - 1))) h
  else if tick < t.lv2_lo + horizon then
    push t (lv2_base + ((tick lsr (lv0_bits + lv1_bits)) land (lv2_slots - 1))) h
  else begin
    link h t.far;
    t.far <- h;
    t.n_far <- t.n_far + 1
  end

let rec place_chain t h =
  if h != never then begin
    let next = h.next in
    place t (tick_of h.at) h;
    place_chain t next
  end

let rec insert_after prev h =
  let next = prev.next in
  if next == never || before h next then begin
    link h next;
    prev.next <- h
  end
  else insert_after next h

(* an event behind the cursor (a fresh handle): merge it into the
   ready chain *)
let insert_ready t h =
  let first = t.ready in
  if first == never || before h first then begin
    link h first;
    t.ready <- h
  end
  else insert_after first h

(* unlink the cancelled handles of a chain, keeping the order of the
   rest; returns the new head *)
let sweep t chain =
  let head = ref never and last = ref never and h = ref chain in
  while !h != never do
    let x = !h in
    h := x.next;
    if x.state = 1 then begin
      link x never;
      t.queued <- t.queued - 1
    end
    else begin
      if !last == never then head := x else link !last x;
      last := x
    end
  done;
  if !last != never then link !last never;
  !head

(* purge cancelled entries from every chain in one O(n) pass *)
let compact t =
  for i = 0 to Array.length t.first - 1 do
    let chain = t.first.(i) in
    if chain != never then begin
      let queued = t.queued in
      let kept = sweep t chain in
      if kept != chain then t.first.(i) <- kept;
      if i < lv1_base then t.n0 <- t.n0 - (queued - t.queued)
    end
  done;
  t.ready <- sweep t t.ready;
  let queued = t.queued in
  t.far <- sweep t t.far;
  t.n_far <- t.n_far - (queued - t.queued);
  t.cancels := 0

let[@inline] enqueue t h =
  let tick = tick_of h.at in
  (* an empty queue's windows move to the clock: behind the cursor
     there is then room only for events of the tick just drained *)
  if t.queued = 0 then rebase t (tick_of t.clock);
  if tick < t.cursor then insert_ready t h else place t tick h;
  t.queued <- t.queued + 1;
  let cancelled = !(t.cancels) in
  if cancelled >= 32 && 2 * cancelled > t.queued then compact t

let schedule_at t ~at action =
  let at = if at > t.clock then at else t.clock in
  let handle = { at; seq = t.next_seq; action; state = 0; cancels = t.cancels; next = never } in
  t.next_seq <- t.next_seq + 1;
  enqueue t handle;
  handle

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule_with_seq t ~at ~seq action =
  let at = if at > t.clock then at else t.clock in
  let handle = { at; seq; action; state = 0; cancels = t.cancels; next = never } in
  enqueue t handle;
  handle

let schedule t ~delay action =
  schedule_at t ~at:(t.clock +. (if delay > 0.0 then delay else 0.0)) action

let cancel handle =
  if handle.state = 0 then begin
    handle.state <- 1;
    incr handle.cancels
  end

let cancelled handle = handle.state = 1

let fire_time handle = handle.at

(* merge two sorted, [never]-terminated chains behind [last] *)
let rec merge_after last a b =
  if a == never then link last b
  else if b == never then link last a
  else if before b a then begin
    link last b;
    merge_after b a b.next
  end
  else begin
    link last a;
    merge_after a a.next b
  end

let rec nth h k = if k = 0 then h else nth h.next (k - 1)

(* sort the [n] >= 1 handles chained from [h] by (at, seq); returns the
   new head *)
let rec sort h n =
  if n = 1 then begin
    link h never;
    h
  end
  else begin
    let half = n / 2 in
    let rest = nth h half in
    let a = sort h half in
    let b = sort rest (n - half) in
    if before b a then begin
      merge_after b a b.next;
      b
    end
    else begin
      merge_after a a.next b;
      a
    end
  end

let rec length h n = if h == never then n else length h.next (n + 1)

let cascade t i =
  let chain = t.first.(i) in
  if chain != never then begin
    t.first.(i) <- never;
    place_chain t chain
  end

(* the cursor reached the end of the level-0 window: shift the windows
   and move the next coarse slot(s) down *)
let shift_windows t =
  t.lv0_lo <- t.lv0_lo + lv1_span;
  if t.lv0_lo = t.lv1_lo + lv2_span then begin
    t.lv1_lo <- t.lv0_lo;
    if t.lv1_lo = t.lv2_lo + horizon then begin
      t.lv2_lo <- t.lv1_lo;
      (* level 2's window turned: far events inside it move in *)
      let far = t.far in
      t.far <- never;
      t.n_far <- 0;
      place_chain t far
    end;
    cascade t (lv2_base + ((t.lv1_lo lsr (lv0_bits + lv1_bits)) land (lv2_slots - 1)))
  end;
  cascade t (lv1_base + ((t.lv0_lo lsr lv0_bits) land (lv1_slots - 1)))

let rec min_tick h m = if h == never then m else min_tick h.next (Int.min m (tick_of h.at))

(* advance the cursor until the ready chain holds the earliest events,
   or the queue is empty *)
let refill t =
  while t.ready == never && t.queued > 0 do
    if t.n0 > 0 then begin
      let i = t.cursor land (lv0_slots - 1) in
      let bucket = t.first.(i) in
      if bucket != never then begin
        t.first.(i) <- never;
        let n = length bucket 0 in
        t.n0 <- t.n0 - n;
        t.ready <- (if n = 1 then bucket else sort bucket n)
      end;
      t.cursor <- t.cursor + 1;
      if t.cursor = t.lv0_lo + lv1_span then shift_windows t
    end
    else if t.queued > t.n_far then begin
      (* nothing in the fine window: jump to its end *)
      t.cursor <- t.lv0_lo + lv1_span;
      shift_windows t
    end
    else begin
      (* only far events remain: move the windows to the earliest *)
      let far = t.far in
      rebase t (min_tick far max_tick);
      t.far <- never;
      t.n_far <- 0;
      place_chain t far
    end
  done

let run ?until ?max_events t =
  let unt = match until with None -> infinity | Some u -> u in
  let cap = match max_events with None -> max_int | Some m -> m in
  let in_range = ref true in
  while !in_range && t.executed < cap do
    if t.ready == never then refill t;
    let h = t.ready in
    if h == never || h.at > unt then in_range := false
    else begin
      (* a popped handle links to nothing, so a caller that keeps it
         pins no later event *)
      t.ready <- h.next;
      link h never;
      t.queued <- t.queued - 1;
      if h.at > t.clock then t.clock <- h.at;
      if h.state = 0 then begin
        h.state <- 2;
        t.executed <- t.executed + 1;
        h.action ()
      end
      else if h.state = 1 then decr t.cancels
    end
  done;
  (* when we stopped because the queue drained or the next event lies
     beyond [until], the clock advances to [until] *)
  if not !in_range then
    match until with
    | Some u when u > t.clock -> t.clock <- u
    | Some _ | None -> ()

let events_executed t = t.executed

let events_scheduled t = t.next_seq

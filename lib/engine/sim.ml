(* Discrete-event simulation driver.

   Events are split across three places by access pattern: a one-slot
   min-cache ([head]) that absorbs the schedule-one/fire-one pattern
   entirely, a hierarchical timer wheel (O(1) schedule/cancel; covers
   the short horizon where virtually all protocol timers live) and a
   binary heap that holds only events beyond the wheel's 2^20 ms
   horizon. Every handle carries a globally increasing sequence number
   and everything orders by (fire-time, seq), so execution order is
   identical to a single heap — FIFO among events scheduled for the
   same instant — regardless of where an event was stored.

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
}

type t = {
  mutable clock : float;
  mutable head : handle; (* min-cache: earliest pending event, or [nil] *)
  mutable queued : int; (* entries in wheel + heap (excludes [head]) *)
  heap : handle Heap.t; (* beyond the wheel's horizon *)
  wheel : handle Wheel.t;
  nil : handle; (* sentinel: compares after every real handle *)
  cancels : int ref;
  mutable next_seq : int;
  mutable executed : int;
}

let compare_handle a b =
  let c = Float.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?(now = 0.0) () =
  let nil = { at = infinity; seq = max_int; action = ignore; state = 2; cancels = ref 0 } in
  {
    clock = now;
    head = nil;
    queued = 0;
    heap = Heap.create ~dummy:nil ~compare_priority:compare_handle ();
    wheel =
      Wheel.create ~start:(Float.max now 0.0) ~time_of:(fun h -> h.at) ~compare:compare_handle ();
    nil;
    cancels = ref 0;
    next_seq = 0;
    executed = 0;
  }

(* a pre-fired handle shared by everyone: lets "no timer armed" be a
   plain handle-valued field instead of an option, so hot state
   machines re-arm timers without boxing [Some handle] every round *)
let never = { at = infinity; seq = max_int; action = ignore; state = 2; cancels = ref 0 }

let now t = t.clock

let pending t = (if t.head == t.nil then 0 else 1) + t.queued

let cancelled_pending t = !(t.cancels)

let alive h = h.state <> 1

(* purge cancelled entries from both structures in one O(n) pass *)
let compact t =
  Heap.filter_in_place t.heap alive;
  Wheel.filter_in_place t.wheel alive;
  if t.head != t.nil && not (alive t.head) then t.head <- t.nil;
  t.queued <- Heap.length t.heap + Wheel.length t.wheel;
  t.cancels := 0

let maybe_compact t =
  let cancelled = !(t.cancels) in
  if cancelled >= 32 && 2 * cancelled > pending t then compact t

let push_queued t handle =
  if not (Wheel.add t.wheel handle) then Heap.push t.heap handle;
  t.queued <- t.queued + 1;
  maybe_compact t

(* [head] caches the minimum so the schedule-one/fire-one pattern
   (timer cascades, lone in-flight packets) never touches the wheel or
   heap. Invariant: head <> nil implies head <= everything queued.
   Inlined into both schedulers: [schedule_at] is the hottest call in
   the engine and must not pay an extra call per event. *)
let[@inline] enqueue t handle =
  if t.head == t.nil then begin
    if t.queued = 0 then t.head <- handle else push_queued t handle
  end
  else if compare_handle handle t.head < 0 then begin
    let demoted = t.head in
    t.head <- handle;
    push_queued t demoted
  end
  else push_queued t handle

let schedule_at t ~at action =
  let at = if at > t.clock then at else t.clock in
  let handle = { at; seq = t.next_seq; action; state = 0; cancels = t.cancels } in
  t.next_seq <- t.next_seq + 1;
  enqueue t handle;
  handle

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule_with_seq t ~at ~seq action =
  let at = if at > t.clock then at else t.clock in
  let handle = { at; seq; action; state = 0; cancels = t.cancels } in
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

(* pop the earliest queued handle from wheel/heap (cancelled ones
   included, as before: reaping a cancelled event advances the clock to
   its fire time); [t.nil] when both are empty. Allocation-free. *)
let pop_queued t =
  let a = Wheel.top t.wheel ~default:t.nil in
  let b = Heap.top t.heap in
  if a == t.nil && b == t.nil then t.nil
  else if b == t.nil || (a != t.nil && compare_handle a b <= 0) then begin
    Wheel.drop_head t.wheel;
    t.queued <- t.queued - 1;
    a
  end
  else begin
    Heap.remove_top t.heap;
    t.queued <- t.queued - 1;
    b
  end

let pop_next t =
  let h = t.head in
  if h != t.nil then begin
    t.head <- t.nil;
    h
  end
  else pop_queued t

let run ?until ?max_events t =
  let unt = match until with None -> infinity | Some u -> u in
  let cap = match max_events with None -> max_int | Some m -> m in
  let in_range = ref true in
  while !in_range && t.executed < cap do
    let h = pop_next t in
    if h == t.nil then in_range := false
    else if h.at > unt then begin
      (* un-pop: [h] was the global minimum, so parking it in [head]
         preserves the invariant *)
      t.head <- h;
      in_range := false
    end
    else begin
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

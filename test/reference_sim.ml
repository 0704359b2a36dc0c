(* Reference model for Engine.Sim: one queue ordered by (fire-time,
   sequence number), without Sim's timer wheel and far chain.
   test_engine.ml requires Sim to fire the same events
   at the same instants, end on the same clock and count the same
   executions as this model for any schedule. The rules it keeps:
   - an event due in the past is clamped to now;
   - events fire by (time, seq), so same-instant events fire in the
     order they were scheduled;
   - a cancelled entry is reaped when it reaches the front, and reaping
     it still advances the clock to its fire time;
   - once at least 32 queued entries are cancelled and they are more
     than half of the queue, the next schedule drops them all.
   The interface mirrors the part of Sim the equivalence test drives. *)

module Queue = Map.Make (struct
  type t = float * int

  let compare (a, s) (b, u) =
    let c = Float.compare a b in
    if c <> 0 then c else Int.compare s u
end)

type state = Pending | Cancelled | Fired

type handle = {
  action : unit -> unit;
  mutable state : state;
  cancels : int ref;  (* the owning scheduler's cancelled-but-queued count *)
}

type t = {
  mutable clock : float;
  mutable queue : handle Queue.t;
  mutable next_seq : int;
  mutable executed : int;
  cancels : int ref;
}

let create ?(now = 0.0) () =
  { clock = now; queue = Queue.empty; next_seq = 0; executed = 0; cancels = ref 0 }

let now t = t.clock

let events_executed t = t.executed

let schedule t ~delay action =
  let at = t.clock +. delay in
  let at = if at > t.clock then at else t.clock in
  let handle = { action; state = Pending; cancels = t.cancels } in
  t.queue <- Queue.add (at, t.next_seq) handle t.queue;
  t.next_seq <- t.next_seq + 1;
  let cancelled = !(t.cancels) in
  if cancelled >= 32 && 2 * cancelled > Queue.cardinal t.queue then begin
    t.queue <- Queue.filter (fun _ h -> h.state <> Cancelled) t.queue;
    t.cancels := 0
  end;
  handle

let cancel handle =
  if handle.state = Pending then begin
    handle.state <- Cancelled;
    incr handle.cancels
  end

(* the clock moves to [until] only when the queue drained or its next
   entry lies beyond [until], not when [max_events] stopped the run *)
let run ?until ?max_events t =
  let limit = Option.value until ~default:infinity in
  let cap = Option.value max_events ~default:max_int in
  let rec loop () =
    if t.executed >= cap then false
    else
      match Queue.min_binding_opt t.queue with
      | None -> true
      | Some ((at, _), _) when at > limit -> true
      | Some (((at, _) as key), handle) ->
        t.queue <- Queue.remove key t.queue;
        if at > t.clock then t.clock <- at;
        (match handle.state with
         | Pending ->
           handle.state <- Fired;
           t.executed <- t.executed + 1;
           handle.action ()
         | Cancelled -> decr t.cancels
         | Fired -> ());
        loop ()
  in
  if loop () then
    match until with
    | Some u when u > t.clock -> t.clock <- u
    | Some _ | None -> ()

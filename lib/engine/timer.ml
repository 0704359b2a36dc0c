module Idle = struct
  (* Touch-heavy deadlines (RRMP resets one on *every* recovery
     request) must not pay a scheduler entry per touch. [touch] only
     records when it happened and reserves the sequence number an eager
     cancel + re-arm would have taken; the armed event stays queued.
     When that (now stale) event fires, [expired] re-arms it at the
     recorded touch plus the timeout, with the reserved number. Events
     order by (time, seq), so the final firing lands in exactly the slot
     the eager version gave it — same instant, same FIFO place among
     same-instant events — and seeded runs are unchanged. *)

  type t = {
    mutable handle : Sim.handle;  (* [Sim.never] when disarmed *)
    mutable timeout : float;
    (* the clock's own boxed value at the latest touch: storing it
       allocates nothing; valid while [reserved >= 0] *)
    mutable touched_at : float;
    mutable reserved : int;  (* seq for the deferred re-arm; -1 = none *)
  }

  let create () = { handle = Sim.never; timeout = 0.0; touched_at = 0.0; reserved = -1 }

  let stop t =
    Sim.cancel t.handle;
    t.handle <- Sim.never;
    t.reserved <- -1

  let arm sim t ~timeout action =
    stop t;
    t.timeout <- timeout;
    t.handle <- Sim.schedule sim ~delay:timeout action

  let expired sim t action =
    if t.reserved >= 0 then begin
      let seq = t.reserved in
      t.reserved <- -1;
      t.handle <- Sim.schedule_with_seq sim ~at:(t.touched_at +. t.timeout) ~seq action;
      false
    end
    else begin
      t.handle <- Sim.never;
      true
    end

  let touch sim t =
    if t.handle != Sim.never then begin
      t.touched_at <- Sim.now sim;
      t.reserved <- Sim.reserve_seq sim
    end

  let active t = t.handle != Sim.never
end

module Periodic = struct
  type t = {
    sim : Sim.t;
    interval : float;
    jitter : (unit -> float) option;
    tick : unit -> unit;
    mutable handle : Sim.handle option;
    mutable stopped : bool;
  }

  let next_delay t =
    let extra = match t.jitter with None -> 0.0 | Some j -> j () in
    Float.max (t.interval +. extra) Float.epsilon

  let rec arm t =
    let handle =
      Sim.schedule t.sim ~delay:(next_delay t) (fun () ->
          if not t.stopped then begin
            t.tick ();
            if not t.stopped then arm t
          end)
    in
    t.handle <- Some handle

  let create ?jitter sim ~interval tick =
    let t = { sim; interval; jitter; tick; handle = None; stopped = false } in
    arm t;
    t

  let stop t =
    t.stopped <- true;
    match t.handle with
    | None -> ()
    | Some handle ->
      Sim.cancel handle;
      t.handle <- None

  let active t = not t.stopped
end

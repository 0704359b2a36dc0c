module Idle = struct
  (* Touch-heavy idle timers (RRMP resets one on *every* recovery
     request) must not pay a scheduler entry per touch. [touch] only
     records the new deadline and reserves the sequence number an eager
     cancel + re-arm would have taken; the armed event stays queued.
     When that (now stale) event fires, it re-arms at the recorded
     deadline with the reserved number. Events order by (time, seq), so
     the final firing lands in exactly the slot the eager version gave
     it — same instant, same FIFO place among same-instant events — and
     seeded runs are unchanged. *)

  (* a float-only record is stored flat: writing it boxes nothing *)
  type deadline = { mutable at : float }

  type t = {
    sim : Sim.t;
    timeout : float;
    on_idle : unit -> unit;
    mutable handle : Sim.handle;  (* [Sim.never] when disarmed *)
    due : deadline;  (* latest deadline; valid while [reserved >= 0] *)
    mutable reserved : int;  (* seq for the deferred re-arm; -1 = none *)
    mutable fire : unit -> unit;  (* set once at create, shared by every re-arm *)
  }

  let expire t =
    if t.reserved >= 0 then begin
      let seq = t.reserved in
      t.reserved <- -1;
      t.handle <- Sim.schedule_with_seq t.sim ~at:t.due.at ~seq t.fire
    end
    else begin
      t.handle <- Sim.never;
      t.on_idle ()
    end

  let arm t = t.handle <- Sim.schedule t.sim ~delay:t.timeout t.fire

  let create sim ~timeout ~on_idle =
    (* [fire] is patched in rather than tied with [let rec], which would
       cost two C calls (dummy block + update) per timer *)
    let t =
      { sim; timeout; on_idle; handle = Sim.never; due = { at = 0.0 }; reserved = -1; fire = ignore }
    in
    t.fire <- (fun () -> expire t);
    arm t;
    t

  let stop t =
    Sim.cancel t.handle;
    t.handle <- Sim.never;
    t.reserved <- -1

  let touch t =
    if t.handle != Sim.never then begin
      t.due.at <- Sim.now t.sim +. t.timeout;
      t.reserved <- Sim.reserve_seq t.sim
    end

  let restart t =
    stop t;
    arm t

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

(* Reference model for Engine.Timer.Idle: the original eager
   implementation, in which every touch cancels the armed event and
   schedules a fresh one. Exact by construction, but each touch costs a
   scheduler entry and a closure. test_idle_lockstep.ml requires the
   production timer, which defers its re-arm to the stale event's
   firing, to fire at the same instants and in the same order among
   other events as this model, through the IDLE signature of that
   suite. *)

module Sim = Engine.Sim

type t = {
  sim : Sim.t;
  timeout : float;
  on_idle : unit -> unit;
  mutable handle : Sim.handle option;
}

let arm t =
  let handle =
    Sim.schedule t.sim ~delay:t.timeout (fun () ->
        t.handle <- None;
        t.on_idle ())
  in
  t.handle <- Some handle

let create sim ~timeout ~on_idle =
  let t = { sim; timeout; on_idle; handle = None } in
  arm t;
  t

let stop t =
  match t.handle with
  | None -> ()
  | Some handle ->
    Sim.cancel handle;
    t.handle <- None

let touch t =
  match t.handle with
  | None -> ()
  | Some handle ->
    Sim.cancel handle;
    arm t

let restart t =
  stop t;
  arm t

let active t = t.handle <> None

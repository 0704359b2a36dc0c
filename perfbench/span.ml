(* Span recorder for the traced run.

   A span is (name, parent, start, end). Names are small integers, so
   recording one writes four preallocated array slots; the first
   [capacity] spans are kept for {!write}, and every span, kept or
   not, feeds the per-name self-time totals at close. Self time is the
   span's duration minus the time its child spans cover, accumulated
   on an open-span stack as children close. *)

let round = 0
let setup = 1
let engine_dispatch = 2
let rrmp_recv = 3
let rrmp_timer = 4
let rrmp_multicast = 5
let netsim_send = 6
let transport_send = 7
let transport_recv = 8
let spine_create = 9
let spine_multicast = 10
let spine_run = 11

let names =
  [|
    "round";
    "setup";
    "engine.dispatch";
    "rrmp.recv";
    "rrmp.timer";
    "rrmp.multicast";
    "netsim.send";
    "transport.send";
    "transport.recv";
    "spine.create";
    "spine.multicast";
    "spine.run";
  |]

let capacity = 1 lsl 18
let max_depth = 64

type t = {
  k_name : int array;
  k_parent : int array;
  k_start : float array;
  k_end : float array;
  mutable opened : int;  (* spans opened so far; the next span's id *)
  st_id : int array;
  st_name : int array;
  st_start : float array;
  st_child : float array;
  mutable depth : int;
  self : float array;  (* per name, s *)
  count : int array;  (* per name *)
}

let create () =
  let n = Array.length names in
  {
    k_name = Array.make capacity 0;
    k_parent = Array.make capacity (-1);
    k_start = Array.make capacity 0.0;
    k_end = Array.make capacity 0.0;
    opened = 0;
    st_id = Array.make max_depth 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0.0;
    st_child = Array.make max_depth 0.0;
    depth = 0;
    self = Array.make n 0.0;
    count = Array.make n 0;
  }

let enter_at t name at =
  let id = t.opened in
  t.opened <- id + 1;
  if id < capacity then begin
    t.k_name.(id) <- name;
    t.k_parent.(id) <- (if t.depth = 0 then -1 else t.st_id.(t.depth - 1));
    t.k_start.(id) <- at
  end;
  let d = t.depth in
  t.st_id.(d) <- id;
  t.st_name.(d) <- name;
  t.st_start.(d) <- at;
  t.st_child.(d) <- 0.0;
  t.depth <- d + 1

let leave_at t at =
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.st_id.(d) and name = t.st_name.(d) in
  let dur = at -. t.st_start.(d) in
  if id < capacity then t.k_end.(id) <- at;
  t.self.(name) <- t.self.(name) +. (dur -. t.st_child.(d));
  t.count.(name) <- t.count.(name) + 1;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) +. dur

let enter t name = enter_at t name (Timing.now ())
let leave t = leave_at t (Timing.now ())

(* close the innermost span and open [name] at the same instant *)
let switch t name =
  let at = Timing.now () in
  leave_at t at;
  enter_at t name at

(* [c] with each of its four send closures inside a [name] span;
   [on_send] sees every message first *)
let wrap_caps t name ~on_send (c : Rrmp.Member.caps) : Rrmp.Member.caps =
  let around msg send =
    on_send msg;
    enter t name;
    send ();
    leave t
  in
  {
    c with
    Rrmp.Member.cap_unicast =
      (fun ~cls ~src ~dst msg -> around msg (fun () -> c.Rrmp.Member.cap_unicast ~cls ~src ~dst msg));
    cap_regional =
      (fun ~cls ~src ~region msg ->
        around msg (fun () -> c.Rrmp.Member.cap_regional ~cls ~src ~region msg));
    cap_multicast =
      (fun ~cls ~src ~reach msg ->
        around msg (fun () -> c.Rrmp.Member.cap_multicast ~cls ~src ~reach msg));
    cap_multicast_lossy =
      (fun ~cls ~src msg -> around msg (fun () -> c.Rrmp.Member.cap_multicast_lossy ~cls ~src msg));
  }

let top_name t = if t.depth = 0 then -1 else t.st_name.(t.depth - 1)

(* relabel the innermost open span (its kind is known only later) *)
let rename_top t name =
  let d = t.depth - 1 in
  t.st_name.(d) <- name;
  let id = t.st_id.(d) in
  if id < capacity then t.k_name.(id) <- name
let self_s t name = t.self.(name)
let count t name = t.count.(name)

(* wall time of the root span, s (the first span opened) *)
let root_wall_s t = t.k_end.(0) -. t.k_start.(0)

(* Kept spans as TSV (id, parent, name, start_s, end_s), times relative
   to the root's start. *)
let write t path =
  let oc = open_out path in
  let t0 = t.k_start.(0) in
  Printf.fprintf oc "id\tparent\tname\tstart_s\tend_s\n";
  for id = 0 to min t.opened capacity - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\n" id t.k_parent.(id) names.(t.k_name.(id))
      (t.k_start.(id) -. t0) (t.k_end.(id) -. t0)
  done;
  close_out oc

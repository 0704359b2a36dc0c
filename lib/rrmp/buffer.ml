module Sim = Engine.Sim
module Idle = Engine.Timer.Idle

type phase = Short_term | Long_term

type entry = {
  payload : Payload.t;
  mutable phase : phase;
  stored_at : float;
  deadline : Idle.t;
  mutable fire : unit -> unit;  (* set once at insert, shared by every (re-)arm *)
}

type t = {
  sim : Sim.t;
  entries : entry Protocol.Msg_id.Table.t;
  mutable on_expire : entry -> unit;
  mutable bytes : int;
  mutable long_count : int;  (* entries currently in Long_term phase *)
  mutable last_change : float;
  mutable msg_ms : float;
  mutable byte_ms : float;
  mutable peak_size : int;
  mutable peak_bytes : int;
}

let create ~sim =
  {
    sim;
    entries = Protocol.Msg_id.Table.create 64;
    on_expire = ignore;
    bytes = 0;
    long_count = 0;
    last_change = Sim.now sim;
    msg_ms = 0.0;
    byte_ms = 0.0;
    peak_size = 0;
    peak_bytes = 0;
  }

let set_on_expire t f = t.on_expire <- f

let size t = Protocol.Msg_id.Table.length t.entries

(* accumulate occupancy integrals up to the current instant *)
let settle t =
  let now = Sim.now t.sim in
  let dt = now -. t.last_change in
  if dt > 0.0 then begin
    t.msg_ms <- t.msg_ms +. (float_of_int (size t) *. dt);
    t.byte_ms <- t.byte_ms +. (float_of_int t.bytes *. dt)
  end;
  t.last_change <- now

(* the one action an entry ever schedules: a stale firing (the deadline
   was touched) re-arms itself, a real one hands the entry over *)
let expire t e = if Idle.expired t.sim e.deadline e.fire then t.on_expire e

let insert t ~phase payload =
  let id = Payload.id payload in
  if Protocol.Msg_id.Table.mem t.entries id then Protocol.Msg_id.Table.find t.entries id
  else begin
    settle t;
    let e =
      { payload; phase; stored_at = Sim.now t.sim; deadline = Idle.create (); fire = ignore }
    in
    (* patched in rather than tied with [let rec], which would cost two
       C calls (dummy block + update) per entry *)
    e.fire <- (fun () -> expire t e);
    Protocol.Msg_id.Table.add t.entries id e;
    if phase = Long_term then t.long_count <- t.long_count + 1;
    t.bytes <- t.bytes + Payload.size payload;
    if size t > t.peak_size then t.peak_size <- size t;
    if t.bytes > t.peak_bytes then t.peak_bytes <- t.bytes;
    e
  end

let find t id = Protocol.Msg_id.Table.find t.entries id

let mem t id = Protocol.Msg_id.Table.mem t.entries id

let payload e = e.payload

let phase e = e.phase

let stored_at e = e.stored_at

let promote t e =
  if e.phase = Short_term then begin
    e.phase <- Long_term;
    t.long_count <- t.long_count + 1
  end

let remove t e =
  Idle.stop e.deadline;
  settle t;
  Protocol.Msg_id.Table.remove t.entries (Payload.id e.payload);
  if e.phase = Long_term then t.long_count <- t.long_count - 1;
  t.bytes <- t.bytes - Payload.size e.payload

let arm t e ~timeout = Idle.arm t.sim e.deadline ~timeout e.fire

let touch t e = Idle.touch t.sim e.deadline

let disarm e = Idle.stop e.deadline

let armed e = Idle.active e.deadline

let bytes t = t.bytes

let count_phase t phase =
  match phase with
  | Long_term -> t.long_count
  | Short_term -> size t - t.long_count

(* iteration order is documented as unspecified; the protocol
   consumers (handle_history's stability revisit, the teardown disarm)
   are order-independent and regression-tested as such, and the sorted
   views below are what everything else uses *)
let[@lint.allow
     "D2 exported primitive with documented unspecified order; protocol use is \
      order-independent (handle_history regression test) and reporting goes through the \
      sorted contents/long_term_payloads views"] iter t f =
  Protocol.Msg_id.Table.iter (fun _ e -> f e) t.entries

let[@lint.allow
     "D2 exported primitive with documented unspecified order; see iter — sorted views \
      cover all order-sensitive consumers"] fold t ~init f =
  Protocol.Msg_id.Table.fold (fun _ e acc -> f acc e) t.entries init

let by_id a b = Protocol.Msg_id.compare (Payload.id a) (Payload.id b)

let contents t =
  fold t ~init:[] (fun acc e -> (e.payload, e.phase) :: acc)
  |> List.sort (fun (a, _) (b, _) -> by_id a b)

let long_term_payloads t =
  fold t ~init:[] (fun acc e -> if e.phase = Long_term then e.payload :: acc else acc)
  |> List.sort by_id

let occupancy_msg_ms t =
  settle t;
  t.msg_ms

let occupancy_byte_ms t =
  settle t;
  t.byte_ms

let peak_size t = t.peak_size

let peak_bytes t = t.peak_bytes

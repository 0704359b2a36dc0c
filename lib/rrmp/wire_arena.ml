(* Interning arena for the hot-path wire messages.

   A steady-state resend — a recovery retry, a repair served again, a
   duplicate regional re-multicast — used to allocate a fresh [Wire.t]
   cell every time. The arena hands back the one cell already built
   for that (constructor, id) instead: structurally identical to a
   fresh construction (the lockstep suite holds the two in lockstep
   over [bytes]/[cls]/dispatch), so seeded runs are byte-identical
   with the arena on or off, but the resend allocates nothing.

   Payload-carrying cells are validated by pointer against the payload
   being sent: if a member ever re-obtains a message body (discard,
   then repair), the cached cell wrapping the stale record is rebuilt
   rather than resurrected. Lookups use [find]-with-exception, not
   [find_opt], so a hit allocates no [Some] box. *)

module Msg_id = Protocol.Msg_id

type t = {
  enabled : bool;
  origin : Node_id.t;  (* the owning member: every Remote_request it sends names it *)
  data : Wire.t Msg_id.Table.t;
  repairs : Wire.t Msg_id.Table.t;
  regionals : Wire.t Msg_id.Table.t;
  locals : Wire.t Msg_id.Table.t;
  remotes : Wire.t Msg_id.Table.t;
  (* the session advertisement only moves forward; caching the last
     cell makes every tick between multicasts allocation-free *)
  mutable session_max : int;
  mutable session_cell : Wire.t;
}

(* process-wide kill switch, the Pool.default_workers / REPRO_SHARDS
   convention: harnesses flip it to compare whole experiment registries
   with the arena on and off without threading a config everywhere.
   Atomic because [create] runs on pool workers (sharded runs build
   their member state inside Pool.parallel_for) while a harness on the
   main domain may flip the switch between registries. *)
let default_enabled_atomic = Atomic.make true

let set_default_enabled b = Atomic.set default_enabled_atomic b

let default_enabled () = Atomic.get default_enabled_atomic

let create ~origin () =
  {
    enabled = Atomic.get default_enabled_atomic;
    origin;
    data = Msg_id.Table.create 16;
    repairs = Msg_id.Table.create 16;
    regionals = Msg_id.Table.create 16;
    locals = Msg_id.Table.create 16;
    remotes = Msg_id.Table.create 16;
    session_max = -1;
    session_cell = Wire.Session { max_seq = 0 };
  }

let data t p =
  if not t.enabled then Wire.Data p
  else
    let id = Payload.id p in
    match Msg_id.Table.find t.data id with
    | exception Not_found ->
      let cell = Wire.Data p in
      Msg_id.Table.add t.data id cell;
      cell
    | Wire.Data q as cell when q == p -> cell
    | _ ->
      let cell = Wire.Data p in
      Msg_id.Table.replace t.data id cell;
      cell

let repair t p =
  if not t.enabled then Wire.Repair p
  else
    let id = Payload.id p in
    match Msg_id.Table.find t.repairs id with
    | exception Not_found ->
      let cell = Wire.Repair p in
      Msg_id.Table.add t.repairs id cell;
      cell
    | Wire.Repair q as cell when q == p -> cell
    | _ ->
      let cell = Wire.Repair p in
      Msg_id.Table.replace t.repairs id cell;
      cell

let regional_repair t p =
  if not t.enabled then Wire.Regional_repair p
  else
    let id = Payload.id p in
    match Msg_id.Table.find t.regionals id with
    | exception Not_found ->
      let cell = Wire.Regional_repair p in
      Msg_id.Table.add t.regionals id cell;
      cell
    | Wire.Regional_repair q as cell when q == p -> cell
    | _ ->
      let cell = Wire.Regional_repair p in
      Msg_id.Table.replace t.regionals id cell;
      cell

let local_request t id =
  if not t.enabled then Wire.Local_request id
  else
    match Msg_id.Table.find t.locals id with
    | cell -> cell
    | exception Not_found ->
      let cell = Wire.Local_request id in
      Msg_id.Table.add t.locals id cell;
      cell

let remote_request t id =
  if not t.enabled then Wire.Remote_request { id; origin = t.origin }
  else
    match Msg_id.Table.find t.remotes id with
    | cell -> cell
    | exception Not_found ->
      let cell = Wire.Remote_request { id; origin = t.origin } in
      Msg_id.Table.add t.remotes id cell;
      cell

let session t ~max_seq =
  if not t.enabled then Wire.Session { max_seq }
  else if t.session_max = max_seq then t.session_cell
  else begin
    let cell = Wire.Session { max_seq } in
    t.session_max <- max_seq;
    t.session_cell <- cell;
    cell
  end

(* Flat-array member state (see the .mli for the layout story).

   Packing: a (member, seq) pair is the int key [k = m * cap + seq];
   bitsets are byte-packed Bytes.t over k, phases are one byte per k,
   and each k has one deadline tick: the idle deadline while its phase
   is short-term, the lifetime once long-term (a key never holds both).
   The built-in deadline ring is lazy-touch: [touch] is a plain array
   store, and the sweep re-buckets keys whose tick moved. The owner
   sweeps it at its barriers ([sweep_until]); the ring never schedules
   a Sim event. Bucket vectors are grow-only int arrays; the bucket
   table is only ever indexed by tick (never iterated), so no
   unordered-iteration order can escape.

   Off-heap backing: the per-key deadline tick and the per-member
   occupancy integrals — the arrays whose size is proportional to
   n * cap — live in Bigarrays, so a 10^6-member arena costs the OCaml
   heap a handful of words regardless of how much state it tracks; the
   GC neither scans nor copies any of it. The gap callback is installed
   once at [create] (not passed per call): note_data runs on every
   delivery, and a per-call closure would charge the entire deliver
   path for the rare gap event. *)

type ticks = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_ticks len : ticks =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill a 0;
  a

let make_floats len : floats =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  Bigarray.Array1.fill a 0.0;
  a

let[@inline] ba_get (a : ticks) i = Bigarray.Array1.unsafe_get a i

let[@inline] ba_set (a : ticks) i v = Bigarray.Array1.unsafe_set a i v

let[@inline] fa_get (a : floats) i = Bigarray.Array1.unsafe_get a i

let[@inline] fa_set (a : floats) i v = Bigarray.Array1.unsafe_set a i v

(* tick-keyed buckets: the keys are small positive ints, so identity is
   a perfect hash (functor-made, per the D3 rule) *)
module Tick_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash t = t land max_int
end)

type bucket = { mutable keys : int array; mutable len : int }

type t = {
  n : int;
  cap : int;
  quantum : float;
  idle_timeout : float;
  lifetime : float;  (* 0.0 = no lifetime configured *)
  mutable armed_buckets : int;  (* non-empty ticks; quiescence probe *)
  mutable swept : int;  (* highest tick swept *)
  on_expire : member:int -> seq:int -> unit;
  on_gap : member:int -> seq:int -> unit;
  (* gap detection, arrayified Gap_detect *)
  recv : Bytes.t;  (* n*cap receipt bits *)
  horizon : int array;  (* per member; -1 = nothing known *)
  missing_cnt : int array;
  recv_cnt : int array;
  (* two-phase buffer *)
  phase : Bytes.t;  (* per key: 0 absent, 1 short-term, 2 long-term *)
  buf_count : int array;
  buf_long : int array;
  peak : int array;
  occ_msg_ms : floats;
  occ_last : floats;
  delivered : int array;
  promotions : int array;  (* per seq: long-term bufferers in this region *)
  (* coalesced deadline ring: current tick per key, 0 = unarmed *)
  ticks : ticks;
  buckets : bucket Tick_tbl.t;  (* tick -> armed keys *)
}

let create ~now ~n ~cap ~quantum ~idle_timeout ~lifetime ~on_expire ~on_gap () =
  if n < 0 then invalid_arg "Member_soa.create: n must be non-negative";
  if cap <= 0 then invalid_arg "Member_soa.create: cap must be positive";
  (* the packed key [m * cap + seq] must fit in an OCaml int: at 10^6
     members x cap this is the guard that makes an oversized
     configuration fail loudly instead of silently aliasing two
     (member, seq) pairs onto one key *)
  if n > 0 && cap > max_int / n then
    invalid_arg "Member_soa.create: n * cap exceeds the packed (member, seq) key range";
  if quantum <= 0.0 then invalid_arg "Member_soa.create: quantum must be positive";
  if idle_timeout <= 0.0 then invalid_arg "Member_soa.create: idle_timeout must be positive";
  let lifetime =
    match lifetime with
    | None -> 0.0
    | Some l ->
      if l <= 0.0 then invalid_arg "Member_soa.create: lifetime must be positive";
      l
  in
  let keys = n * cap in
  {
    n;
    cap;
    quantum;
    idle_timeout;
    lifetime;
    armed_buckets = 0;
    (* ticks at or before [now] are treated as already swept, so the
       first sweep_until never fires a deadline armed after create in
       a bucket that predates it *)
    swept = int_of_float (Float.floor ((now /. quantum) +. 1e-9));
    on_expire;
    on_gap;
    recv = Bytes.make ((keys + 7) / 8) '\000';
    horizon = Array.make n (-1);
    missing_cnt = Array.make n 0;
    recv_cnt = Array.make n 0;
    phase = Bytes.make keys '\000';
    buf_count = Array.make n 0;
    buf_long = Array.make n 0;
    peak = Array.make n 0;
    occ_msg_ms = make_floats n;
    occ_last = make_floats n;
    delivered = Array.make n 0;
    promotions = Array.make cap 0;
    ticks = make_ticks keys;
    buckets = Tick_tbl.create 64;
  }

let members t = t.n

let capacity t = t.cap

let[@inline] key t m seq = (m * t.cap) + seq

let check t m seq =
  if m < 0 || m >= t.n then invalid_arg "Member_soa: member handle out of range";
  if seq < 0 || seq >= t.cap then invalid_arg "Member_soa: seq out of range"

(* ------------------------------------------------------------------ *)
(* Receipt bitset                                                      *)
(* ------------------------------------------------------------------ *)

let[@inline] bit_get bytes k =
  Char.code (Bytes.unsafe_get bytes (k lsr 3)) land (1 lsl (k land 7)) <> 0

let[@inline] bit_set bytes k =
  let b = k lsr 3 in
  Bytes.unsafe_set bytes b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes b) lor (1 lsl (k land 7))))

let[@lint.never_raise] received t m seq =
  (check t m seq)
  [@lint.allow
    "E argument-validation guard: raises only on a caller bug (handle or seq out of \
     range), never on wire input"];
  bit_get t.recv (key t m seq)

(* unreceived seqs in (horizon, upto], ascending, become detected
   losses; [received] above the horizon is possible when a repair for a
   not-yet-detected seq raced the data path, exactly as in Gap_detect *)
let fresh_gaps t m ~upto =
  let base = m * t.cap in
  for s = t.horizon.(m) + 1 to upto do
    if not (bit_get t.recv (base + s)) then begin
      t.missing_cnt.(m) <- t.missing_cnt.(m) + 1;
      t.on_gap ~member:m ~seq:s
    end
  done

let[@lint.never_raise] note_data t m seq =
  (check t m seq)
  [@lint.allow
    "E argument-validation guard: raises only on a caller bug (handle or seq out of \
     range), never on wire input"];
  let k = key t m seq in
  if bit_get t.recv k then false
  else begin
    if seq <= t.horizon.(m) then t.missing_cnt.(m) <- t.missing_cnt.(m) - 1;
    (* a data packet proves every lower seq exists, but not itself lost *)
    fresh_gaps t m ~upto:(seq - 1);
    if seq > t.horizon.(m) then t.horizon.(m) <- seq;
    bit_set t.recv k;
    t.recv_cnt.(m) <- t.recv_cnt.(m) + 1;
    true
  end

let[@lint.never_raise] note_session t m ~max_seq =
  (check t m max_seq)
  [@lint.allow
    "E argument-validation guard: raises only on a caller bug (handle or seq out of \
     range), never on wire input"];
  if max_seq > t.horizon.(m) then begin
    fresh_gaps t m ~upto:max_seq;
    t.horizon.(m) <- max_seq
  end

let[@lint.never_raise] note_repaired t m seq =
  (check t m seq)
  [@lint.allow
    "E argument-validation guard: raises only on a caller bug (handle or seq out of \
     range), never on wire input"];
  let k = key t m seq in
  if bit_get t.recv k then false
  else begin
    if seq <= t.horizon.(m) then t.missing_cnt.(m) <- t.missing_cnt.(m) - 1;
    bit_set t.recv k;
    t.recv_cnt.(m) <- t.recv_cnt.(m) + 1;
    true
  end

let missing_count t m = t.missing_cnt.(m)

let received_count t m = t.recv_cnt.(m)

let highest_seen t m = t.horizon.(m)

(* ------------------------------------------------------------------ *)
(* Deadline ring                                                       *)
(* ------------------------------------------------------------------ *)

let bucket_push b k =
  if b.len = Array.length b.keys then begin
    let fresh = Array.make (2 * b.len) 0 in
    Array.blit b.keys 0 fresh 0 b.len;
    b.keys <- fresh
  end;
  b.keys.(b.len) <- k;
  b.len <- b.len + 1

(* [find]-with-exception, not [find_opt]: arming into an existing
   bucket is the steady state and must not pay a [Some] box. A new
   bucket costs nothing beyond the table entry — the owner sweeps it
   from its window loop — so an arena shared by many regions schedules
   no Sim events at all. *)
let enqueue t tick k =
  match Tick_tbl.find t.buckets tick with
  | b -> bucket_push b k
  | exception Not_found ->
    let b = { keys = Array.make 8 0; len = 0 } in
    bucket_push b k;
    Tick_tbl.add t.buckets tick b;
    t.armed_buckets <- t.armed_buckets + 1

(* fire everything still due at [tick], in arming order; keys whose
   deadline was pushed out by a touch re-bucket here (lazily) *)
let sweep t tick =
  match Tick_tbl.find t.buckets tick with
  | exception Not_found -> ()
  | b ->
    Tick_tbl.remove t.buckets tick;
    t.armed_buckets <- t.armed_buckets - 1;
    for i = 0 to b.len - 1 do
      let k = b.keys.(i) in
      let cur = ba_get t.ticks k in
      if cur <> 0 then
        if cur <= tick then begin
          ba_set t.ticks k 0;
          t.on_expire ~member:(k / t.cap) ~seq:(k mod t.cap)
        end
        else enqueue t cur k
    done

(* the shard coordinator calls this after each window with
   tick = floor(barrier / quantum). Ticks are swept in ascending order,
   and a deadline armed mid-sweep always lands at a strictly later tick
   (timeouts are positive), so the loop never chases its own tail. *)
let sweep_until t ~tick =
  while t.swept < tick do
    t.swept <- t.swept + 1;
    sweep t t.swept
  done

let deadlines_pending t = t.armed_buckets > 0

(* arm a cold key (tick 0): it gets a bucket entry at its tick *)
let arm t k ~timeout ~now =
  (* open-coded tick_of, same reason as [touch]: without flambda the
     deadline float would be boxed at the call boundary, and the
     deliver path (insert -> arm) is gated at exactly 0 words/op *)
  let tick = int_of_float (Float.ceil ((now +. timeout) /. t.quantum)) in
  ba_set t.ticks k tick;
  enqueue t tick k

(* ------------------------------------------------------------------ *)
(* Two-phase buffer                                                    *)
(* ------------------------------------------------------------------ *)

let settle t m ~now =
  (* the first read is bounds-checked so a bad public [m] raises *)
  let dt = now -. Bigarray.Array1.get t.occ_last m in
  if dt > 0.0 then begin
    fa_set t.occ_msg_ms m (fa_get t.occ_msg_ms m +. (float_of_int t.buf_count.(m) *. dt));
    fa_set t.occ_last m now
  end

let settle_all t ~now =
  for m = 0 to t.n - 1 do
    settle t m ~now
  done

let buffered t m seq =
  check t m seq;
  Bytes.unsafe_get t.phase (key t m seq) <> '\000'

let long_term t m seq =
  check t m seq;
  Bytes.unsafe_get t.phase (key t m seq) = '\002'

let insert_short t m seq ~now =
  check t m seq;
  let k = key t m seq in
  if Bytes.unsafe_get t.phase k <> '\000' then false
  else begin
    settle t m ~now;
    Bytes.unsafe_set t.phase k '\001';
    t.buf_count.(m) <- t.buf_count.(m) + 1;
    if t.buf_count.(m) > t.peak.(m) then t.peak.(m) <- t.buf_count.(m);
    arm t k ~timeout:t.idle_timeout ~now;
    true
  end

let touch t m seq ~now =
  check t m seq;
  let k = key t m seq in
  (* O(1): a bare array store; the key already sits in a bucket at or
     before its old tick, and the sweep re-buckets it lazily. tick_of
     is open-coded here so the float argument can never be boxed at a
     call boundary: without flambda the [@inline] hint on tick_of is
     advisory, and this path is specified allocation-free (asserted by
     the soa-touch row in the scale bench). *)
  if ba_get t.ticks k <> 0 then begin
    let timeout = if Bytes.unsafe_get t.phase k = '\002' then t.lifetime else t.idle_timeout in
    ba_set t.ticks k (int_of_float (Float.ceil ((now +. timeout) /. t.quantum)))
  end

let promote_long t m seq ~now =
  check t m seq;
  let k = key t m seq in
  if Bytes.unsafe_get t.phase k <> '\001' then false
  else begin
    Bytes.unsafe_set t.phase k '\002';
    t.buf_long.(m) <- t.buf_long.(m) + 1;
    t.promotions.(seq) <- t.promotions.(seq) + 1;
    (* the lifetime may fall before the idle tick the key is bucketed
       at, so it takes a fresh bucket entry rather than moving the old *)
    ba_set t.ticks k 0;
    if t.lifetime > 0.0 then arm t k ~timeout:t.lifetime ~now;
    true
  end

let drop t m seq ~now =
  check t m seq;
  let k = key t m seq in
  let p = Bytes.unsafe_get t.phase k in
  if p = '\000' then false
  else begin
    settle t m ~now;
    Bytes.unsafe_set t.phase k '\000';
    t.buf_count.(m) <- t.buf_count.(m) - 1;
    if p = '\002' then t.buf_long.(m) <- t.buf_long.(m) - 1;
    ba_set t.ticks k 0;
    true
  end

let buffer_size t m = t.buf_count.(m)

let long_count t m = t.buf_long.(m)

let peak_size t m = t.peak.(m)

let occupancy_msg_ms t m = Bigarray.Array1.get t.occ_msg_ms m

let deliveries t m = t.delivered.(m)

let note_delivery t m = t.delivered.(m) <- t.delivered.(m) + 1

let promotions_of_seq t seq = t.promotions.(seq)

(* Binary wire format for {!Wire.t}.

   Layout (little-endian, lengths in bytes):

     0  'R' 'M'          magic
     2  version           currently 1
     3  tag               constructor, 0..10
     4  var_len   u32     bytes following the 32-byte header
     8  source    u64     message-id source (0 when the tag has none)
     16 seq       u64     message-id seq / session max_seq (else 0)
     24 count     u32     list length for Handoff/History/Gossip (else 0)
     28 hsum      u32     checksum of header bytes 0..27

   Payload-class frames (Data, Repair, Regional_repair) put the body
   directly after the header: total = 32 + size, matching Wire.bytes.
   Handoff frames put [count] entries after the header, each framed as
   source u64 + seq u64 + size u64 + body: total = 32 + sum (24 + size).
   Control-class frames (everything else) carry a 32-byte control
   block after the header (origin u64 for Remote_request/Search, zeros
   otherwise), then their entries, so every control message occupies
   at least 64 bytes — again matching Wire.bytes exactly:
   History entries are addr u64 + (horizon+1) u32 + nmissing u32 then
   nmissing x seq u64 (16 + 8*missing per source); Gossip entries are
   node u64 + heartbeat u64 (16 per entry).

   Integrity: the header checksum catches corruption of the framing
   fields (a flipped length or count cannot send the parser out of
   bounds); body bytes are deliberately not checksummed here — the
   steady-state decode must not touch every payload byte, and
   end-to-end body integrity is the application's concern
   (Payload.intact / Payload.checksum).

   The encode and [read] paths carry rrmp_lint's H1 and A contract: no
   list/closure/Some/tuple allocation, manual recursion instead of
   higher-order walks, and every multi-byte field is assembled from
   plain ints (no Int64 boxing). Encoded values must fit 62 bits; the
   decoder rejects anything larger, so a frame never materializes an
   int that would wrap. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type error =
  | Truncated
  | Bad_magic
  | Bad_version
  | Bad_tag
  | Bad_length
  | Bad_checksum
  | Bad_field

type status = Ok_frame | Err of error

let error_to_string = function
  | Truncated -> "truncated frame"
  | Bad_magic -> "bad magic"
  | Bad_version -> "unsupported version"
  | Bad_tag -> "unknown tag"
  | Bad_length -> "length field disagrees with frame"
  | Bad_checksum -> "header checksum mismatch"
  | Bad_field -> "field out of range"

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let version = 1

let header_bytes = 32

let control_bytes = 64

let tag_data = 0

let tag_session = 1

let tag_local_request = 2

let tag_remote_request = 3

let tag_repair = 4

let tag_regional_repair = 5

let tag_search = 6

let tag_have = 7

let tag_handoff = 8

let tag_history = 9

let tag_gossip = 10

(* ------------------------------------------------------------------ *)
(* Raw field access (no bounds checks: every caller verifies the frame
   extent once, then stays inside it)                                  *)
(* ------------------------------------------------------------------ *)

let set8 (b : buf) off v = Bigarray.Array1.unsafe_set b off (Char.unsafe_chr (v land 0xff))

let get8 (b : buf) off = Char.code (Bigarray.Array1.unsafe_get b off)

let set_u32 b off v =
  set8 b off v;
  set8 b (off + 1) (v lsr 8);
  set8 b (off + 2) (v lsr 16);
  set8 b (off + 3) (v lsr 24)

let get_u32 b off =
  get8 b off
  lor (get8 b (off + 1) lsl 8)
  lor (get8 b (off + 2) lsl 16)
  lor (get8 b (off + 3) lsl 24)

let set_u64 b off v =
  set_u32 b off v;
  set_u32 b (off + 4) (v lsr 32)

(* returns -1 when the stored value does not fit OCaml's 62 usable
   bits (the encoder never writes such a value, so it marks a corrupt
   or foreign frame) *)
let get_u64 b off =
  let lo = get_u32 b off in
  let hi = get_u32 b (off + 4) in
  if hi land 0xC0000000 <> 0 then -1 else lo lor (hi lsl 32)

let rec header_sum_from b off i acc =
  if i = 28 then acc else header_sum_from b off (i + 1) (((acc * 31) + get8 b (off + i)) land 0xFFFFFFFF)

let header_sum b off = header_sum_from b off 0 0x9e37

let rec zero_fill b off n = if n > 0 then begin set8 b off 0; zero_fill b (off + 1) (n - 1) end

(* Word-wide copies for every body and frame move on the datagram
   path: eight bytes per step, a byte loop for the last [len mod 8].
   The u-suffixed primitives skip the bounds check and allow any
   alignment, a native-endian load/store pair is a plain byte copy on
   any host, and the int64 never leaves the pair, so it stays unboxed.
   Annotate every [buf]: an unconstrained bigarray parameter compiles
   each access to the generic dispatch primitive, measured ~8x slower. *)
external get64 : buf -> int -> int64 = "%caml_bigstring_get64u"

external set64 : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"

external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let rec blit (src : buf) soff (dst : buf) doff len =
  if len >= 8 then begin
    set64 dst doff (get64 src soff);
    blit src (soff + 8) dst (doff + 8) (len - 8)
  end
  else if len > 0 then begin
    Bigarray.Array1.unsafe_set dst doff (Bigarray.Array1.unsafe_get src soff);
    blit src (soff + 1) dst (doff + 1) (len - 1)
  end

let rec unsafe_blit_to_bytes (src : buf) soff dst doff len =
  if len >= 8 then begin
    bytes_set64 dst doff (get64 src soff);
    unsafe_blit_to_bytes src (soff + 8) dst (doff + 8) (len - 8)
  end
  else if len > 0 then begin
    Bytes.unsafe_set dst doff (Bigarray.Array1.unsafe_get src soff);
    unsafe_blit_to_bytes src (soff + 1) dst (doff + 1) (len - 1)
  end

let rec unsafe_blit_of_bytes src soff (dst : buf) doff len =
  if len >= 8 then begin
    set64 dst doff (bytes_get64 src soff);
    unsafe_blit_of_bytes src (soff + 8) dst (doff + 8) (len - 8)
  end
  else if len > 0 then begin
    Bigarray.Array1.unsafe_set dst doff (Bytes.unsafe_get src soff);
    unsafe_blit_of_bytes src (soff + 1) dst (doff + 1) (len - 1)
  end

(* ------------------------------------------------------------------ *)
(* Sizes                                                               *)
(* ------------------------------------------------------------------ *)

let rec handoff_size acc = function
  | [] -> acc
  | p :: rest -> handoff_size (acc + 24 + Payload.size p) rest

let rec history_size acc = function
  | [] -> acc
  | (_, (_, missing)) :: rest -> history_size (acc + 16 + (8 * List.length missing)) rest

let encoded_size = function
  | Wire.Data p | Wire.Repair p | Wire.Regional_repair p -> header_bytes + Payload.size p
  | Wire.Handoff payloads -> handoff_size header_bytes payloads
  | Wire.History digest -> history_size control_bytes digest
  | Wire.Gossip table -> control_bytes + (16 * List.length table)
  | Wire.Session _ | Wire.Local_request _ | Wire.Remote_request _ | Wire.Search _
  | Wire.Have _ ->
    control_bytes

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let write_header b off ~tag ~var_len ~source_i ~seq_i ~count =
  Bigarray.Array1.unsafe_set b off 'R';
  Bigarray.Array1.unsafe_set b (off + 1) 'M';
  set8 b (off + 2) version;
  set8 b (off + 3) tag;
  set_u32 b (off + 4) var_len;
  set_u64 b (off + 8) source_i;
  set_u64 b (off + 16) seq_i;
  set_u32 b (off + 24) count;
  set_u32 b (off + 28) (header_sum b off)

let encode_payload b ~off ~tag p =
  let n = Payload.size p in
  let pid = Payload.id p in
  write_header b off ~tag ~var_len:n
    ~source_i:(Node_id.to_int (Protocol.Msg_id.source pid))
    ~seq_i:(Protocol.Msg_id.seq pid) ~count:0;
  blit (Payload.body p) 0 b (off + header_bytes) n

(* control frame whose only content is the message id *)
let encode_id_control b ~off ~tag mid =
  write_header b off ~tag ~var_len:32
    ~source_i:(Node_id.to_int (Protocol.Msg_id.source mid))
    ~seq_i:(Protocol.Msg_id.seq mid) ~count:0;
  zero_fill b (off + header_bytes) 32

(* control frame carrying the id plus an origin in the control block *)
let encode_origin_control b ~off ~tag mid node =
  write_header b off ~tag ~var_len:32
    ~source_i:(Node_id.to_int (Protocol.Msg_id.source mid))
    ~seq_i:(Protocol.Msg_id.seq mid) ~count:0;
  set_u64 b (off + header_bytes) (Node_id.to_int node);
  zero_fill b (off + header_bytes + 8) 24

let rec count_list acc = function [] -> acc | _ :: rest -> count_list (acc + 1) rest

let rec encode_handoff_entries b cursor = function
  | [] -> ()
  | p :: rest ->
    let n = Payload.size p in
    let pid = Payload.id p in
    set_u64 b cursor (Node_id.to_int (Protocol.Msg_id.source pid));
    set_u64 b (cursor + 8) (Protocol.Msg_id.seq pid);
    set_u64 b (cursor + 16) n;
    blit (Payload.body p) 0 b (cursor + 24) n;
    encode_handoff_entries b (cursor + 24 + n) rest

let encode_handoff b ~off payloads ~size =
  write_header b off ~tag:tag_handoff ~var_len:(size - header_bytes) ~source_i:0 ~seq_i:0
    ~count:(count_list 0 payloads);
  encode_handoff_entries b (off + header_bytes) payloads

let rec encode_missing b cursor = function
  | [] -> cursor
  | s :: rest ->
    if s < 0 then invalid_arg "Codec.encode: negative missing sequence number";
    set_u64 b cursor s;
    encode_missing b (cursor + 8) rest

let rec encode_history_sources b cursor = function
  | [] -> ()
  | (node, (horizon, missing)) :: rest ->
    if horizon < -1 then invalid_arg "Codec.encode: history horizon below -1";
    set_u64 b cursor (Node_id.to_int node);
    set_u32 b (cursor + 8) (horizon + 1);
    set_u32 b (cursor + 12) (count_list 0 missing);
    let cursor = encode_missing b (cursor + 16) missing in
    encode_history_sources b cursor rest

let encode_history b ~off digest ~size =
  write_header b off ~tag:tag_history ~var_len:(size - header_bytes) ~source_i:0 ~seq_i:0
    ~count:(count_list 0 digest);
  zero_fill b (off + header_bytes) 32;
  encode_history_sources b (off + control_bytes) digest

let rec encode_gossip_entries b cursor = function
  | [] -> ()
  | (node, heartbeat) :: rest ->
    if heartbeat < 0 then invalid_arg "Codec.encode: negative gossip heartbeat";
    set_u64 b cursor (Node_id.to_int node);
    set_u64 b (cursor + 8) heartbeat;
    encode_gossip_entries b (cursor + 16) rest

let encode_gossip b ~off table ~size =
  write_header b off ~tag:tag_gossip ~var_len:(size - header_bytes) ~source_i:0 ~seq_i:0
    ~count:(count_list 0 table);
  zero_fill b (off + header_bytes) 32;
  encode_gossip_entries b (off + control_bytes) table

let encode b ~off msg =
  let size = encoded_size msg in
  if off < 0 || off + size > Bigarray.Array1.dim b then
    invalid_arg "Codec.encode: frame does not fit the buffer at this offset";
  if size - header_bytes > 0xFFFFFFFF then invalid_arg "Codec.encode: frame too large for u32 length";
  (match msg with
   | Wire.Data p -> encode_payload b ~off ~tag:tag_data p
   | Wire.Repair p -> encode_payload b ~off ~tag:tag_repair p
   | Wire.Regional_repair p -> encode_payload b ~off ~tag:tag_regional_repair p
   | Wire.Session { max_seq } ->
     if max_seq < 0 then invalid_arg "Codec.encode: negative session max_seq";
     write_header b off ~tag:tag_session ~var_len:32 ~source_i:0 ~seq_i:max_seq ~count:0;
     zero_fill b (off + header_bytes) 32
   | Wire.Local_request mid -> encode_id_control b ~off ~tag:tag_local_request mid
   | Wire.Have mid -> encode_id_control b ~off ~tag:tag_have mid
   | Wire.Remote_request { id = mid; origin } ->
     encode_origin_control b ~off ~tag:tag_remote_request mid origin
   | Wire.Search { id = mid; origin } -> encode_origin_control b ~off ~tag:tag_search mid origin
   | Wire.Handoff payloads -> encode_handoff b ~off payloads ~size
   | Wire.History digest -> encode_history b ~off digest ~size
   | Wire.Gossip table -> encode_gossip b ~off table ~size);
  size

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let empty_buf : buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

type decoder = {
  mutable d_buf : buf;  (* the frame the last successful read points into *)
  mutable d_off : int;
  mutable d_len : int;
  mutable d_tag : int;
  mutable d_source : int;
  mutable d_seq : int;
  mutable d_count : int;
  mutable d_origin : int;
  mutable d_body_off : int;  (* absolute offset of a payload body *)
  mutable d_body_len : int;
  mutable d_ok : bool;
}

let create_decoder () =
  {
    d_buf = empty_buf;
    d_off = 0;
    d_len = 0;
    d_tag = 0;
    d_source = 0;
    d_seq = 0;
    d_count = 0;
    d_origin = 0;
    d_body_off = 0;
    d_body_len = 0;
    d_ok = false;
  }

(* validation walks: pure cursor arithmetic, no allocation. Each
   returns true iff the entries parse and end exactly at [stop]. *)

let rec valid_handoff b cursor stop n =
  if n = 0 then cursor = stop
  else if cursor + 24 > stop then false
  else
    let source_i = get_u64 b cursor in
    let seq_i = get_u64 b (cursor + 8) in
    let size = get_u64 b (cursor + 16) in
    if source_i < 0 || seq_i < 0 || size < 0 then false
    else if cursor + 24 + size > stop then false
    else valid_handoff b (cursor + 24 + size) stop (n - 1)

let rec valid_history b cursor stop n =
  if n = 0 then cursor = stop
  else if cursor + 16 > stop then false
  else
    let addr = get_u64 b cursor in
    let nmissing = get_u32 b (cursor + 12) in
    if addr < 0 then false
    else if cursor + 16 + (8 * nmissing) > stop then false
    else if not (valid_missing b (cursor + 16) nmissing) then false
    else valid_history b (cursor + 16 + (8 * nmissing)) stop (n - 1)

and valid_missing b cursor n =
  if n = 0 then true
  else if get_u64 b cursor < 0 then false
  else valid_missing b (cursor + 8) (n - 1)

let rec valid_gossip b cursor n =
  if n = 0 then true
  else if get_u64 b cursor < 0 || get_u64 b (cursor + 8) < 0 then false
  else valid_gossip b (cursor + 16) (n - 1)

let[@lint.never_raise] read d b ~off ~len =
  d.d_ok <- false;
  if off < 0 || len < 0 || off + len > Bigarray.Array1.dim b then Err Truncated
  else if len < header_bytes then Err Truncated
  else if get8 b off <> Char.code 'R' || get8 b (off + 1) <> Char.code 'M' then Err Bad_magic
  else if get8 b (off + 2) <> version then Err Bad_version
  else begin
    let tag = get8 b (off + 3) in
    if tag > tag_gossip then Err Bad_tag
    else if get_u32 b (off + 28) <> header_sum b off then Err Bad_checksum
    else begin
      let var_len = get_u32 b (off + 4) in
      if var_len <> len - header_bytes then Err Bad_length
      else begin
        let source_i = get_u64 b (off + 8) in
        let seq_i = get_u64 b (off + 16) in
        let count = get_u32 b (off + 24) in
        let control = tag <> tag_data && tag <> tag_repair && tag <> tag_regional_repair && tag <> tag_handoff in
        if source_i < 0 || seq_i < 0 then Err Bad_field
        else if control && var_len < 32 then Err Bad_length
        else begin
          let entries = off + control_bytes in
          let stop = off + len in
          let ok =
            if tag = tag_data || tag = tag_repair || tag = tag_regional_repair then begin
              d.d_body_off <- off + header_bytes;
              d.d_body_len <- var_len;
              count = 0
            end
            else if tag = tag_handoff then valid_handoff b (off + header_bytes) stop count
            else if tag = tag_history then valid_history b entries stop count
            else if tag = tag_gossip then
              var_len = 32 + (16 * count) && valid_gossip b entries count
            else if tag = tag_remote_request || tag = tag_search then begin
              d.d_origin <- get_u64 b (off + header_bytes);
              var_len = 32 && d.d_origin >= 0
            end
            else (* session / local_request / have *) var_len = 32 && count = 0
          in
          if not ok then Err Bad_field
          else begin
            d.d_buf <- b;
            d.d_off <- off;
            d.d_len <- len;
            d.d_tag <- tag;
            d.d_source <- source_i;
            d.d_seq <- seq_i;
            d.d_count <- count;
            d.d_ok <- true;
            Ok_frame
          end
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Materializing a read frame                                          *)
(* ------------------------------------------------------------------ *)

let slice ~copy b off len =
  if copy then begin
    let body = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len in
    blit b off body 0 len;
    body
  end
  else Bigarray.Array1.sub b off len

let payload_at ~copy b ~source_i ~seq_i ~body_off ~body_len =
  let mid = Protocol.Msg_id.make ~source:(Node_id.of_int source_i) ~seq:seq_i in
  Payload.of_slice mid (slice ~copy b body_off body_len)

let rec handoff_entries ~copy b cursor n acc =
  if n = 0 then List.rev acc
  else
    let source_i = get_u64 b cursor in
    let seq_i = get_u64 b (cursor + 8) in
    let size = get_u64 b (cursor + 16) in
    let p = payload_at ~copy b ~source_i ~seq_i ~body_off:(cursor + 24) ~body_len:size in
    handoff_entries ~copy b (cursor + 24 + size) (n - 1) (p :: acc)

let rec missing_entries b cursor n acc =
  if n = 0 then List.rev acc else missing_entries b (cursor + 8) (n - 1) (get_u64 b cursor :: acc)

let[@lint.allow
     "A materializing a History frame builds the caller-owned digest list; the gated hot paths \
      are encode and read, and a transport drains control frames without calling view in its \
      steady state"] rec history_entries b cursor n acc =
  if n = 0 then List.rev acc
  else
    let addr = get_u64 b cursor in
    let horizon = get_u32 b (cursor + 8) - 1 in
    let nmissing = get_u32 b (cursor + 12) in
    let missing = missing_entries b (cursor + 16) nmissing [] in
    let entry = (Node_id.of_int addr, (horizon, missing)) in
    history_entries b (cursor + 16 + (8 * nmissing)) (n - 1) (entry :: acc)

let[@lint.allow
     "A materializing a Gossip frame builds the caller-owned heartbeat table; off the gated \
      encode/read paths for the same reason as history_entries"] rec gossip_entries b cursor n acc =
  if n = 0 then List.rev acc
  else
    let entry = (Node_id.of_int (get_u64 b cursor), get_u64 b (cursor + 8)) in
    gossip_entries b (cursor + 16) (n - 1) (entry :: acc)

let view d ~copy =
  if not d.d_ok then invalid_arg "Codec.view: the decoder holds no successfully read frame";
  let b = d.d_buf in
  let mid () = Protocol.Msg_id.make ~source:(Node_id.of_int d.d_source) ~seq:d.d_seq in
  let body () =
    payload_at ~copy b ~source_i:d.d_source ~seq_i:d.d_seq ~body_off:d.d_body_off
      ~body_len:d.d_body_len
  in
  if d.d_tag = tag_data then Wire.Data (body ())
  else if d.d_tag = tag_repair then Wire.Repair (body ())
  else if d.d_tag = tag_regional_repair then Wire.Regional_repair (body ())
  else if d.d_tag = tag_session then Wire.Session { max_seq = d.d_seq }
  else if d.d_tag = tag_local_request then Wire.Local_request (mid ())
  else if d.d_tag = tag_have then Wire.Have (mid ())
  else if d.d_tag = tag_remote_request then
    Wire.Remote_request { id = mid (); origin = Node_id.of_int d.d_origin }
  else if d.d_tag = tag_search then Wire.Search { id = mid (); origin = Node_id.of_int d.d_origin }
  else if d.d_tag = tag_handoff then
    Wire.Handoff (handoff_entries ~copy b (d.d_off + header_bytes) d.d_count [])
  else if d.d_tag = tag_history then
    Wire.History (history_entries b (d.d_off + control_bytes) d.d_count [])
  else Wire.Gossip (gossip_entries b (d.d_off + control_bytes) d.d_count [])

let decode ?(copy = true) b ~off ~len =
  let d = create_decoder () in
  match read d b ~off ~len with Ok_frame -> Ok (view d ~copy) | Err e -> Error e

(* Real UDP datagrams over 127.0.0.1, one nonblocking socket per
   member. Every member binds an ephemeral port (no port conflicts,
   parallel test runs included) and the port learned from getsockname
   identifies the sender on receipt.

   Hot-path discipline: a transmission, however many destinations it
   fans out to, is encoded once into one send frame and copied once
   into the reused Bytes scratch the kernel reads (the Unix
   sendto/recvfrom API takes Bytes, not Bigarray; the copy is the
   codec's word-wide blit); receives land in one scratch, are
   validated by a pooled Codec decoder, and only materialize a Wire.t
   (fresh payload bodies, safe for the member to retain) once the
   frame has passed validation. Loss injection for controlled
   experiments sits on the send side — a dropped datagram never costs
   a syscall — and is driven by an explicit seeded Rng, drawn once per
   destination in send order, so a loss schedule is reproducible for a
   fixed send sequence. *)

type t = {
  nodes : Node_id.t array;
  socks : Unix.file_descr array;
  addrs : Unix.sockaddr array;  (* indexed like [nodes] *)
  index_of : (int, int) Hashtbl.t;  (* node id -> index *)
  port_of : (int, int) Hashtbl.t;  (* udp port -> index *)
  send_frame : Rrmp.Codec.buf;
  send_scratch : Bytes.t;
  recv_scratch : Bytes.t;
  recv_frame : Rrmp.Codec.buf;
  dec : Rrmp.Codec.decoder;
  loss : float;
  rng : Engine.Rng.t;
  st : Transport.stats;
  mutable closed : bool;
}

let stats t = t.st

let nodes t = t.nodes

let port t node =
  match Hashtbl.find_opt t.index_of (Node_id.to_int node) with
  | None -> invalid_arg "Udp_loopback.port: unknown node"
  | Some i -> (
    match t.addrs.(i) with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> invalid_arg "Udp_loopback.port: not an inet endpoint")

let create ?(loss = 0.0) ?(seed = 0x6e6574) ?(slot_bytes = 65536) ~nodes () =
  if loss < 0.0 || loss > 1.0 then invalid_arg "Udp_loopback.create: loss outside [0, 1]";
  let n = Array.length nodes in
  let index_of = Hashtbl.create (2 * n) in
  let port_of = Hashtbl.create (2 * n) in
  let socks =
    Array.map
      (fun _ ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        Unix.set_nonblock sock;
        (* ask for roomy queues; the kernel clamps to its limits, and
           overflow beyond that shows up as real drops the protocol's
           recovery has to repair — which is the point of the bench *)
        (try Unix.setsockopt_int sock Unix.SO_RCVBUF (4 * 1024 * 1024) with Unix.Unix_error _ -> ());
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        sock)
      nodes
  in
  let addrs = Array.map Unix.getsockname socks in
  Array.iteri
    (fun i node ->
      Hashtbl.replace index_of (Node_id.to_int node) i;
      match addrs.(i) with
      | Unix.ADDR_INET (_, p) -> Hashtbl.replace port_of p i
      | Unix.ADDR_UNIX _ -> ())
    nodes;
  {
    nodes;
    socks;
    addrs;
    index_of;
    port_of;
    send_frame = Bigarray.Array1.create Bigarray.char Bigarray.c_layout slot_bytes;
    send_scratch = Bytes.create slot_bytes;
    recv_scratch = Bytes.create slot_bytes;
    recv_frame = Bigarray.Array1.create Bigarray.char Bigarray.c_layout slot_bytes;
    dec = Rrmp.Codec.create_decoder ();
    loss;
    rng = Engine.Rng.create ~seed;
    st = Transport.make_stats ();
    closed = false;
  }

let index_exn t node =
  match Hashtbl.find_opt t.index_of (Node_id.to_int node) with
  | Some i -> i
  | None -> invalid_arg "Udp_loopback: node not part of this transport"

(* encode [msg] into the send frame and copy it into the scratch:
   once per transmission, whatever its fan-out. Returns the frame
   size, or -1 when the frame does not fit a slot. *)
let stage t msg =
  let size = Rrmp.Codec.encoded_size msg in
  if size > Bytes.length t.send_scratch then -1
  else begin
    ignore (Rrmp.Codec.encode t.send_frame ~off:0 msg : int);
    Rrmp.Codec.unsafe_blit_to_bytes t.send_frame 0 t.send_scratch 0 size;
    size
  end

(* one datagram of the staged frame; the loss draw comes first, so the
   seeded schedule does not depend on frame sizes *)
let transmit t src_i dst_i size =
  if t.loss > 0.0 && Engine.Rng.bernoulli t.rng ~p:t.loss then
    t.st.Transport.dropped_loss <- t.st.Transport.dropped_loss + 1
  else if size < 0 then t.st.Transport.dropped_oversize <- t.st.Transport.dropped_oversize + 1
  else
    match Unix.sendto t.socks.(src_i) t.send_scratch 0 size [] t.addrs.(dst_i) with
    | _written ->
      t.st.Transport.datagrams_sent <- t.st.Transport.datagrams_sent + 1;
      t.st.Transport.bytes_sent <- t.st.Transport.bytes_sent + size
    | exception
        Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.ENOBUFS | Unix.ECONNREFUSED), _, _) ->
      t.st.Transport.dropped_backpressure <- t.st.Transport.dropped_backpressure + 1

let send t ~src ~dst msg =
  if not t.closed then begin
    let src_i = index_exn t src in
    let dst_i = index_exn t dst in
    transmit t src_i dst_i (stage t msg)
  end

let fanout t ~src dsts ~keep msg =
  if not t.closed then begin
    let src_i = index_exn t src in
    let size = stage t msg in
    for k = 0 to Array.length dsts - 1 do
      let dst = dsts.(k) in
      if (not (Node_id.equal dst src)) && keep dst then transmit t src_i (index_exn t dst) size
    done
  end

(* one receive: (-1, _) when the socket is dry, (_, -1) when the
   kernel reported something other than a datagram (ECONNREFUSED is
   the ICMP echo of an earlier send), else (length, sender port) —
   zero-length datagrams included *)
let[@lint.never_raise] recv_one t i =
  match Unix.recvfrom t.socks.(i) t.recv_scratch 0 (Bytes.length t.recv_scratch) [] with
  | n, Unix.ADDR_INET (_, sender_port) -> (n, sender_port)
  | _n, Unix.ADDR_UNIX _ -> (0, -1)
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> (-1, -1)
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> (0, -1)

let[@lint.never_raise] drain t ~handle =
  if t.closed then 0
  else begin
    let handed = ref 0 in
    for i = 0 to Array.length t.socks - 1 do
      let dry = ref false in
      while not !dry do
        let n, sender_port = recv_one t i in
        if n < 0 then dry := true
        else if sender_port >= 0 then begin
          t.st.Transport.datagrams_received <- t.st.Transport.datagrams_received + 1;
          t.st.Transport.bytes_received <- t.st.Transport.bytes_received + n;
          Rrmp.Codec.unsafe_blit_of_bytes t.recv_scratch 0 t.recv_frame 0 n;
          match Rrmp.Codec.read t.dec t.recv_frame ~off:0 ~len:n with
          | Rrmp.Codec.Err _ ->
            t.st.Transport.decode_errors <- t.st.Transport.decode_errors + 1
          | Rrmp.Codec.Ok_frame -> (
            match Hashtbl.find_opt t.port_of sender_port with
            | None -> t.st.Transport.decode_errors <- t.st.Transport.decode_errors + 1
            | Some src_i ->
              let msg =
                (Rrmp.Codec.view t.dec ~copy:true)
                [@lint.allow
                  "E view raises only when the decoder holds no frame, and this arm runs \
                   just after read returned Ok_frame"]
              in
              incr handed;
              handle ~src:t.nodes.(src_i) ~dst:t.nodes.(i) msg)
        end
      done
    done;
    !handed
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter (fun sock -> try Unix.close sock with Unix.Unix_error _ -> ()) t.socks
  end

(* What one round of a workload yields. *)

type t = {
  setup_s : float;  (* topology, network/fabric, members/arena, sockets *)
  run_s : float;  (* wall time from the first send to the horizon *)
  part_run_s : float array;
      (* [run_s] split into laps that do the same work in every round:
         250 sim-ms of a wan session, 250 steps of udp_loopback, the
         whole run of spine_scale *)
  deliveries : int;  (* message bodies obtained by receivers (not the sender) *)
  obligations : int;  (* receivers x messages *)
  undelivered : int;  (* obligations still open at the horizon *)
  recoveries : int;
  latency_sum : float;  (* sim-ms *)
  occupancy_sum : float;  (* buffer msg-ms, summed over members *)
  members : int;
  events : int;  (* Sim events executed *)
  scheduled : int;  (* Sim events scheduled *)
  usage : Timing.probe;  (* allocation, GCs and kernel time of the run phase *)
  counts : (string * float) list;  (* raw per-layer counters, see [merge] *)
}

let occupancy o = o.occupancy_sum /. float_of_int o.members

(* The simulated-time outputs every round, and the traced run, must
   reproduce bit for bit. *)
let signature o =
  Printf.sprintf "deliveries=%d recoveries=%d latency_sum=%h occupancy=%h events=%d"
    o.deliveries o.recoveries o.latency_sum (occupancy o) o.events

(* counters add up across the sessions of a round, except peaks *)
let merge_counts a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map
    (fun k ->
      let get l = Option.value ~default:0.0 (List.assoc_opt k l) in
      (k, if k = "buffer.peak" then Float.max (get a) (get b) else get a +. get b))
    keys

let merge a b =
  {
    setup_s = a.setup_s +. b.setup_s;
    run_s = a.run_s +. b.run_s;
    part_run_s = Array.append a.part_run_s b.part_run_s;
    deliveries = a.deliveries + b.deliveries;
    obligations = a.obligations + b.obligations;
    undelivered = a.undelivered + b.undelivered;
    recoveries = a.recoveries + b.recoveries;
    latency_sum = a.latency_sum +. b.latency_sum;
    occupancy_sum = a.occupancy_sum +. b.occupancy_sum;
    members = a.members + b.members;
    events = a.events + b.events;
    scheduled = a.scheduled + b.scheduled;
    usage = Timing.add a.usage b.usage;
    counts = merge_counts a.counts b.counts;
  }

(* For a group of Members whose element 0 is the sender of [messages]
   messages: receiver deliveries, obligations still open, the buffer
   occupancy integral summed over members, and the largest buffer. *)
let of_members (members : Rrmp.Member.t array) ~messages =
  let deliveries = ref 0 and undelivered = ref 0 and occupancy = ref 0.0 and peak = ref 0 in
  Array.iteri
    (fun i m ->
      let b = Rrmp.Member.buffer m in
      occupancy := !occupancy +. Rrmp.Buffer.occupancy_msg_ms b;
      peak := max !peak (Rrmp.Buffer.peak_size b);
      if i > 0 then begin
        let d = Rrmp.Member.delivered_count m in
        deliveries := !deliveries + d;
        undelivered := !undelivered + max 0 (messages - d)
      end)
    members;
  (!deliveries, !undelivered, !occupancy, !peak)

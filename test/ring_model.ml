(* Reference model for Member_soa's buffer phases and deadline ring:
   each (member, seq) key keeps its phase and its exact deadline, with
   no ring, no ticks and no lazy re-bucketing. test_shard.ml requires
   the arena to fire the same keys in the same sweeps as this model for
   any schedule of operations. The rules it keeps:
   - insert buffers an absent key short-term, due [idle_timeout] ms
     later;
   - a touch moves an armed deadline to now plus its phase's timeout;
   - promotion makes a short-term key long-term, due [lifetime] ms
     later, or disarmed when there is no lifetime;
   - drop forgets the key, whose deadline then never fires;
   - a sweep up to tick [k] fires every key whose deadline [d] has
     [ceil (d / quantum) <= k]: once, seeing the phase whose timeout
     armed it, after which the key stays buffered and disarmed. *)

type phase = Short | Long

type entry = { mutable phase : phase; mutable deadline : float option (* None = disarmed *) }

type t = {
  quantum : float;
  idle_timeout : float;
  lifetime : float option;
  keys : (int * int, entry) Hashtbl.t;
}

let create ~quantum ~idle_timeout ~lifetime =
  { quantum; idle_timeout; lifetime; keys = Hashtbl.create 16 }

let timeout t = function Short -> Some t.idle_timeout | Long -> t.lifetime

let insert t key ~now =
  if Hashtbl.mem t.keys key then false
  else begin
    Hashtbl.add t.keys key { phase = Short; deadline = Some (now +. t.idle_timeout) };
    true
  end

let touch t key ~now =
  match Hashtbl.find_opt t.keys key with
  | Some ({ deadline = Some _; _ } as e) ->
    e.deadline <- Option.map (fun timeout -> now +. timeout) (timeout t e.phase)
  | Some { deadline = None; _ } | None -> ()

let promote t key ~now =
  match Hashtbl.find_opt t.keys key with
  | Some ({ phase = Short; _ } as e) ->
    e.phase <- Long;
    e.deadline <- Option.map (fun lifetime -> now +. lifetime) t.lifetime;
    true
  | Some { phase = Long; _ } | None -> false

let drop t key =
  if Hashtbl.mem t.keys key then begin
    Hashtbl.remove t.keys key;
    true
  end
  else false

(* the tick a deadline belongs to, computed as the arena computes it *)
let tick_of t deadline = int_of_float (Float.ceil (deadline /. t.quantum))

(* the keys due by [tick], disarmed, as (key, phase, deadline tick)
   sorted by key *)
let sweep_until t ~tick =
  Hashtbl.fold
    (fun key e acc ->
      match e.deadline with
      | Some d when tick_of t d <= tick ->
        e.deadline <- None;
        (key, e.phase, tick_of t d) :: acc
      | Some _ | None -> acc)
    t.keys []
  |> List.sort compare

let pending t = Hashtbl.fold (fun _ e acc -> acc || e.deadline <> None) t.keys false

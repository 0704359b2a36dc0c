(* Event observer shared by every workload: recovery latencies and the
   buffer/search counts, accumulated into preallocated storage. *)

type t = {
  mutable recoveries : int;
  mutable latency_sum : float;
  mutable latencies : float array;
  mutable searches : int;
  mutable unanswerable : int;
  mutable idle : int;
  mutable idle_ms_sum : float;
  mutable promotions : int;
}

let create () =
  {
    recoveries = 0;
    latency_sum = 0.0;
    latencies = Array.make 65536 0.0;
    searches = 0;
    unanswerable = 0;
    idle = 0;
    idle_ms_sum = 0.0;
    promotions = 0;
  }

let record_latency t latency =
  let n = t.recoveries in
  if n = Array.length t.latencies then begin
    let a = Array.make (2 * n) 0.0 in
    Array.blit t.latencies 0 a 0 n;
    t.latencies <- a
  end;
  t.latencies.(n) <- latency;
  t.recoveries <- n + 1;
  t.latency_sum <- t.latency_sum +. latency

(* add [o]'s observations to [t] *)
let absorb t o =
  for i = 0 to o.recoveries - 1 do
    record_latency t o.latencies.(i)
  done;
  t.searches <- t.searches + o.searches;
  t.unanswerable <- t.unanswerable + o.unanswerable;
  t.idle <- t.idle + o.idle;
  t.idle_ms_sum <- t.idle_ms_sum +. o.idle_ms_sum;
  t.promotions <- t.promotions + o.promotions

let observer t : Rrmp.Events.observer =
 fun ~time:_ ~self:_ ev ->
  match ev with
  | Rrmp.Events.Recovered { latency; _ } -> record_latency t latency
  | Rrmp.Events.Search_started _ -> t.searches <- t.searches + 1
  | Rrmp.Events.Request_unanswerable _ -> t.unanswerable <- t.unanswerable + 1
  | Rrmp.Events.Became_idle { buffered_for; _ } ->
    t.idle <- t.idle + 1;
    t.idle_ms_sum <- t.idle_ms_sum +. buffered_for
  | Rrmp.Events.Promoted_long_term _ -> t.promotions <- t.promotions + 1
  | Rrmp.Events.Delivered _ | Rrmp.Events.Loss_detected _ | Rrmp.Events.Buffered _
  | Rrmp.Events.Promotion_skipped _ | Rrmp.Events.Discarded _
  | Rrmp.Events.Search_satisfied _ | Rrmp.Events.Handoff_sent _
  | Rrmp.Events.Handoff_received _ ->
    ()

(* Mid-distribution quantile (Parzen): each distinct value sits at the
   midpoint of its step of the empirical CDF, and [q] interpolates
   linearly between those points. Simulated latencies are discrete
   (constant link delays make them multiples of a few ms), and this
   estimator moves with the share of samples at each value instead of
   jumping between values; on tie-free data it is the Hazen quantile.
   0 when nothing was recovered. *)
let quantile t q =
  let n = t.recoveries in
  if n = 0 then 0.0
  else begin
    let a = Array.sub t.latencies 0 n in
    Array.sort Float.compare a;
    let nf = float_of_int n in
    (* walk the distinct values, tracking the previous midpoint *)
    let rec walk i prev_v prev_m =
      if i >= n then prev_v
      else begin
        let v = a.(i) in
        let j = ref i in
        while !j < n && a.(!j) = v do incr j done;
        let m = (float_of_int i +. (float_of_int (!j - i) /. 2.0)) /. nf in
        if q <= m then
          if i = 0 then v else prev_v +. ((q -. prev_m) /. (m -. prev_m) *. (v -. prev_v))
        else walk !j v m
      end
    in
    walk 0 a.(0) 0.0
  end

(* Tests for the discrete-event engine: RNG determinism and statistical
   sanity, simulator scheduling semantics, timers. *)

open Engine

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child and p1 = Rng.bits64 parent in
  Alcotest.(check bool) "child differs from parent" true (c1 <> p1)

let test_rng_copy () =
  let a = Rng.create ~seed:9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 500 do
    let v = Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_rng_uniform_range () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let u = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create ~seed:6 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.uniform rng
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_bernoulli_rate () =
  let rng = Rng.create ~seed:8 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:8 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng ~p:0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng ~p:1.0)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:10 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:5.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (abs_float (mean -. 5.0) < 0.2)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:11 in
  let n = 20_000 in
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng ~mu:2.0 ~sigma:3.0 in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 2" true (abs_float (mean -. 2.0) < 0.1);
  Alcotest.(check bool) "var near 9" true (abs_float (var -. 9.0) < 0.5)

let test_rng_geometric_mean () =
  let rng = Rng.create ~seed:12 in
  let n = 20_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.geometric rng ~p:0.25
  done;
  (* mean of failures-before-success is (1-p)/p = 3 *)
  let mean = float_of_int !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.15)

let test_rng_pick_uniformity () =
  let rng = Rng.create ~seed:13 in
  let arr = [| 0; 1; 2; 3 |] in
  let counts = Array.make 4 0 in
  let n = 8_000 in
  for _ = 1 to n do
    let v = Rng.pick rng arr in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let rate = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "near 1/4" true (abs_float (rate -. 0.25) < 0.03))
    counts

let test_rng_pick_other () =
  let rng = Rng.create ~seed:14 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    match Rng.pick_other rng arr ~not_equal:2 with
    | Some v -> Alcotest.(check bool) "never the excluded" true (v <> 2)
    | None -> Alcotest.fail "expected a candidate"
  done;
  Alcotest.(check (option int)) "singleton exhausted" None
    (Rng.pick_other rng [| 5 |] ~not_equal:5)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:15 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 20 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create ~seed:16 in
  let arr = Array.init 10 Fun.id in
  let s = Rng.sample_without_replacement rng 4 arr in
  Alcotest.(check int) "size" 4 (Array.length s);
  let seen = Hashtbl.create 4 in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen x);
      Hashtbl.add seen x ())
    s

let qcheck_rng_int_in_range =
  QCheck.Test.make ~name:"rng int always in range" ~count:200
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_runs_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let mark label () = log := (label, Sim.now sim) :: !log in
  ignore (Sim.schedule sim ~delay:30.0 (mark "c"));
  ignore (Sim.schedule sim ~delay:10.0 (mark "a"));
  ignore (Sim.schedule sim ~delay:20.0 (mark "b"));
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "ordered by time"
    [ ("a", 10.0); ("b", 20.0); ("c", 30.0) ]
    (List.rev !log)

let test_sim_same_instant_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Sim.schedule sim ~delay:5.0 (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo at one instant" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let fired = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         fired := "outer" :: !fired;
         ignore
           (Sim.schedule sim ~delay:2.0 (fun () -> fired := "inner" :: !fired))));
  Sim.run sim;
  check_float "clock at last event" 3.0 (Sim.now sim);
  Alcotest.(check (list string)) "both fired" [ "outer"; "inner" ] (List.rev !fired)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:1.0 (fun () -> fired := true) in
  Sim.cancel h;
  Sim.run sim;
  Alcotest.(check bool) "cancelled never fires" false !fired;
  Alcotest.(check bool) "reports cancelled" true (Sim.cancelled h)

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  List.iter
    (fun d -> ignore (Sim.schedule sim ~delay:d (fun () -> incr count)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Sim.run ~until:2.5 sim;
  Alcotest.(check int) "only events <= until" 2 !count;
  check_float "clock advanced to until" 2.5 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "rest run later" 4 !count

let test_sim_negative_delay_clamped () =
  let sim = Sim.create () in
  let at = ref (-1.0) in
  ignore
    (Sim.schedule sim ~delay:5.0 (fun () ->
         ignore (Sim.schedule sim ~delay:(-3.0) (fun () -> at := Sim.now sim))));
  Sim.run sim;
  check_float "clamped to now" 5.0 !at

let test_sim_max_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  (* self-perpetuating event chain would never terminate without cap *)
  let rec tick () =
    incr count;
    ignore (Sim.schedule sim ~delay:1.0 tick)
  in
  ignore (Sim.schedule sim ~delay:1.0 tick);
  Sim.run ~max_events:50 sim;
  Alcotest.(check int) "stopped at cap" 50 !count;
  (* the cap bounds the sim's cumulative count, not this call's *)
  Sim.run ~max_events:50 sim;
  Alcotest.(check int) "a second run to the same cap runs nothing" 50 !count;
  Sim.run ~max_events:(Sim.events_executed sim + 3) sim;
  Alcotest.(check int) "a cap 3 past the count runs 3" 53 !count

let test_sim_events_executed_excludes_cancelled () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:1.0 ignore);
  let h = Sim.schedule sim ~delay:2.0 ignore in
  Sim.cancel h;
  Sim.run sim;
  Alcotest.(check int) "one executed" 1 (Sim.events_executed sim)

let test_sim_compaction () =
  let sim = Sim.create () in
  let hs = Array.init 100 (fun i -> Sim.schedule sim ~delay:(float_of_int i +. 1.0) ignore) in
  Array.iteri (fun i h -> if i < 70 then Sim.cancel h) hs;
  Alcotest.(check int) "cancelled tracked" 70 (Sim.cancelled_pending sim);
  Alcotest.(check int) "still queued" 100 (Sim.pending sim);
  (* cancelled > half of pending: the next schedule triggers compaction *)
  ignore (Sim.schedule sim ~delay:500.0 ignore);
  Alcotest.(check int) "compacted away" 0 (Sim.cancelled_pending sim);
  Alcotest.(check int) "survivors only" 31 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "survivors all fire" 31 (Sim.events_executed sim)

let test_sim_far_future_events () =
  (* events beyond level 2's window (2^20 ms) wait on the far chain and
     must still interleave correctly with near events *)
  let sim = Sim.create () in
  let log = ref [] in
  let mark label () = log := label :: !log in
  ignore (Sim.schedule sim ~delay:2_000_000.0 (mark "far"));
  ignore (Sim.schedule sim ~delay:1.0 (mark "near"));
  ignore (Sim.schedule sim ~delay:3_000_000.0 (mark "farther"));
  Sim.run sim;
  Alcotest.(check (list string)) "near first" [ "near"; "far"; "farther" ] (List.rev !log);
  check_float "clock at last" 3_000_000.0 (Sim.now sim)

let test_sim_far_events_cross_the_turn () =
  (* the last event before level 2's window turns schedules a successor
     past the turn; an event already waiting on the far chain for a time
     between the two must fire between them, so the far chain has to be
     re-bucketed when the window turns. The anchor at 1 ms holds the
     window at [0, 2^20) while the other two are scheduled. *)
  let turn = 1_048_576.0 (* 2^20 ms *) in
  let sim = Sim.create () in
  let log = ref [] in
  let mark label () = log := (label, Sim.now sim) :: !log in
  ignore (Sim.schedule_at sim ~at:1.0 (mark "anchor"));
  ignore
    (Sim.schedule_at sim ~at:(turn -. 1.0) (fun () ->
         mark "before" ();
         ignore (Sim.schedule sim ~delay:2.0 (mark "successor"))));
  ignore (Sim.schedule_at sim ~at:(turn +. 0.5) (mark "far"));
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "far event between the two"
    [
      ("anchor", 1.0); ("before", turn -. 1.0); ("far", turn +. 0.5); ("successor", turn +. 1.0);
    ]
    (List.rev !log)

(* schedule two same-instant events, keep only the first handle, and
   watch the second event's closure through [weak] *)
let[@inline never] schedule_pair sim weak =
  let kept = Sim.schedule sim ~delay:1.0 ignore in
  let hits = ref 0 in
  let second () = incr hits in
  Weak.set weak 0 (Some second);
  ignore (Sim.schedule sim ~delay:1.0 second);
  kept

let test_sim_fired_handle_pins_nothing () =
  (* callers keep fired handles in timer fields: a popped handle must
     not stay linked to the events queued after it *)
  let sim = Sim.create () in
  let weak = Weak.create 1 in
  let kept = schedule_pair sim weak in
  Sim.run sim;
  Gc.full_major ();
  Alcotest.(check bool) "second closure collected" false (Weak.check weak 0);
  ignore (Sys.opaque_identity kept)

(* Scheduler equivalence: any randomized mix of schedules (near,
   tie-prone, around level 2's 2^20 ms window), single and burst cancels,
   reschedules-on-fire (the RRMP idle-reset shape) and partial runs,
   bounded by time or by event count, must produce the same firing log,
   clock and event count from Sim's timer wheel as from the single
   ordered queue of test/reference_sim.ml. Absolute times a few ms
   either side of k * 2^20 ms straddle the turns of level 2's window. *)
module type SCHED = sig
  type t
  type handle

  val create : ?now:float -> unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> handle
  val cancel : handle -> unit
  val run : ?until:float -> ?max_events:int -> t -> unit
  val events_executed : t -> int
end

let sim_trace (module S : SCHED) ops =
  let sim = S.create () in
  let log = ref [] in
  let handles = ref [] in
  let n_handles = ref 0 in
  let next_label = ref 0 in
  let rec sched delay =
    let label = !next_label in
    incr next_label;
    let h =
      S.schedule sim ~delay (fun () ->
          log := (label, S.now sim) :: !log;
          (* every third event reschedules itself once, like an idle
             timer being touched by traffic *)
          if label mod 3 = 0 && label < 2000 then
            sched (float_of_int (label mod 7) /. 2.0))
    in
    handles := h :: !handles;
    incr n_handles
  in
  List.iter
    (fun (tag, v) ->
      match tag mod 9 with
      | 0 | 1 -> sched (float_of_int (v mod 2000) *. 0.75)
      | 2 -> sched (float_of_int (v mod 13) /. 4.0) (* tie-prone *)
      | 3 -> sched (1_000_000.0 +. float_of_int v) (* near the window's end *)
      | 4 ->
        if !n_handles > 0 then S.cancel (List.nth !handles (v mod !n_handles))
      | 5 ->
        (* a burst of cancels on the newest handles: enough cancelled
           entries to reach the compaction trigger *)
        List.iteri (fun i h -> if i < v mod 48 then S.cancel h) !handles
      | 6 -> S.run ~until:(S.now sim +. float_of_int (v mod 300)) sim
      | 7 -> S.run ~max_events:(S.events_executed sim + (v mod 5)) sim
      | _ ->
        (* k * 2^20 ms +- 4 ms, in half-ms steps *)
        let at = float_of_int ((1 + (v mod 3)) lsl 20) +. (float_of_int ((v / 3) mod 17 - 8) /. 2.0) in
        sched (at -. S.now sim))
    ops;
  S.run sim;
  (List.rev !log, S.now sim, S.events_executed sim)

let qcheck_sim_reference_equivalence =
  QCheck.Test.make ~name:"matches reference queue" ~count:1000
    QCheck.(list (pair small_nat (int_bound 10_000)))
    (fun ops -> sim_trace (module Sim) ops = sim_trace (module Reference_sim) ops)

(* ------------------------------------------------------------------ *)
(* Timer                                                               *)
(* ------------------------------------------------------------------ *)

(* an armed idle deadline and its one action, which runs [on_idle] once
   the quiet period really elapses *)
let idle_timer sim ~timeout on_idle =
  let idle = Timer.Idle.create () in
  let rec action () = if Timer.Idle.expired sim idle action then on_idle () in
  Timer.Idle.arm sim idle ~timeout action;
  (idle, action)

let test_idle_fires_without_touch () =
  let sim = Sim.create () in
  let fired_at = ref (-1.0) in
  let _ = idle_timer sim ~timeout:40.0 (fun () -> fired_at := Sim.now sim) in
  Sim.run sim;
  check_float "fires after timeout" 40.0 !fired_at

let test_idle_touch_postpones () =
  let sim = Sim.create () in
  let fired_at = ref (-1.0) in
  let idle, _ = idle_timer sim ~timeout:40.0 (fun () -> fired_at := Sim.now sim) in
  ignore (Sim.schedule sim ~delay:30.0 (fun () -> Timer.Idle.touch sim idle));
  ignore (Sim.schedule sim ~delay:60.0 (fun () -> Timer.Idle.touch sim idle));
  Sim.run sim;
  check_float "fires 40ms after last touch" 100.0 !fired_at

let test_idle_stop () =
  let sim = Sim.create () in
  let fired = ref false in
  let idle, _ = idle_timer sim ~timeout:10.0 (fun () -> fired := true) in
  Timer.Idle.stop idle;
  Sim.run sim;
  Alcotest.(check bool) "stopped never fires" false !fired;
  Alcotest.(check bool) "inactive" false (Timer.Idle.active idle)

let test_idle_restart () =
  let sim = Sim.create () in
  let fires = ref [] in
  let idle, action = idle_timer sim ~timeout:10.0 (fun () -> fires := Sim.now sim :: !fires) in
  (* re-arming a fired deadline runs the same action again; re-arming
     an armed one replaces it *)
  ignore (Sim.schedule sim ~delay:25.0 (fun () -> Timer.Idle.arm sim idle ~timeout:10.0 action));
  ignore (Sim.schedule sim ~delay:30.0 (fun () -> Timer.Idle.arm sim idle ~timeout:10.0 action));
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "fired twice" [ 10.0; 40.0 ] (List.rev !fires)

let test_periodic_ticks () =
  let sim = Sim.create () in
  let ticks = ref [] in
  let p = Timer.Periodic.create sim ~interval:10.0 (fun () -> ticks := Sim.now sim :: !ticks) in
  ignore (Sim.schedule sim ~delay:35.0 (fun () -> Timer.Periodic.stop p));
  Sim.run ~until:100.0 sim;
  Alcotest.(check (list (float 1e-9))) "three ticks then stop" [ 10.0; 20.0; 30.0 ] (List.rev !ticks)

let test_periodic_stop_inside_tick () =
  let sim = Sim.create () in
  let count = ref 0 in
  let p = ref None in
  p :=
    Some
      (Timer.Periodic.create sim ~interval:1.0 (fun () ->
           incr count;
           if !count = 3 then Timer.Periodic.stop (Option.get !p)));
  Sim.run ~until:50.0 sim;
  Alcotest.(check int) "self-stop" 3 !count

let suites =
  [
    ( "engine.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
        Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
        Alcotest.test_case "pick uniformity" `Quick test_rng_pick_uniformity;
        Alcotest.test_case "pick_other" `Quick test_rng_pick_other;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "sample without replacement" `Quick test_rng_sample_without_replacement;
        QCheck_alcotest.to_alcotest qcheck_rng_int_in_range;
      ] );
    ( "engine.sim",
      [
        Alcotest.test_case "time order" `Quick test_sim_runs_in_time_order;
        Alcotest.test_case "same-instant fifo" `Quick test_sim_same_instant_fifo;
        Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
        Alcotest.test_case "cancel" `Quick test_sim_cancel;
        Alcotest.test_case "run until" `Quick test_sim_run_until;
        Alcotest.test_case "negative delay clamped" `Quick test_sim_negative_delay_clamped;
        Alcotest.test_case "max events" `Quick test_sim_max_events;
        Alcotest.test_case "executed excludes cancelled" `Quick test_sim_events_executed_excludes_cancelled;
        Alcotest.test_case "compaction reaps cancelled" `Quick test_sim_compaction;
        Alcotest.test_case "far-future events" `Quick test_sim_far_future_events;
        Alcotest.test_case "far events cross the turn" `Quick test_sim_far_events_cross_the_turn;
        Alcotest.test_case "fired handle pins nothing" `Quick test_sim_fired_handle_pins_nothing;
        QCheck_alcotest.to_alcotest qcheck_sim_reference_equivalence;
      ] );
    ( "engine.timer",
      [
        Alcotest.test_case "idle fires" `Quick test_idle_fires_without_touch;
        Alcotest.test_case "idle touch postpones" `Quick test_idle_touch_postpones;
        Alcotest.test_case "idle stop" `Quick test_idle_stop;
        Alcotest.test_case "idle restart" `Quick test_idle_restart;
        Alcotest.test_case "periodic ticks" `Quick test_periodic_ticks;
        Alcotest.test_case "periodic self-stop" `Quick test_periodic_stop_inside_tick;
      ] );
  ]

(* Timer.Idle's deferred re-arm against the eager cancel + re-arm
   reference (test/eager_idle.ml).

   A touch records the new deadline and reserves a sequence number; the
   stale event re-arms in that reserved (time, seq) slot when it fires.
   The claim under test is that this is unobservable: for any schedule
   of create/touch/stop/restart operations, with same-instant ties and
   with unrelated probe events landing on the same instants, both
   implementations fire at the same instants and interleave with every
   other event in the same order. *)

module Sim = Engine.Sim

module type IDLE = sig
  type t

  val create : Sim.t -> timeout:float -> on_idle:(unit -> unit) -> t
  val touch : t -> unit
  val stop : t -> unit
  val restart : t -> unit
  val active : t -> bool
end

(* Timer.Idle behind the eager reference's interface: the deadline plus
   the one action its owner keeps, as a buffer entry holds them *)
module Idle = struct
  module I = Engine.Timer.Idle

  type t = { sim : Sim.t; idle : I.t; timeout : float; mutable action : unit -> unit }

  let create sim ~timeout ~on_idle =
    let t = { sim; idle = I.create (); timeout; action = ignore } in
    t.action <- (fun () -> if I.expired sim t.idle t.action then on_idle ());
    I.arm sim t.idle ~timeout t.action;
    t

  let touch t = I.touch t.sim t.idle
  let stop t = I.stop t.idle
  let restart t = I.arm t.sim t.idle ~timeout:t.timeout t.action
  let active t = I.active t.idle
end

type entry =
  | Fire of float * int  (* time, slot *)
  | Probe of float * int  (* time, probe id *)
  | Active of int * bool  (* slot, state right after an op on it *)

let show_entry = function
  | Fire (at, slot) -> Printf.sprintf "fire(%g,s%d)" at slot
  | Probe (at, id) -> Printf.sprintf "probe(%g,#%d)" at id
  | Active (slot, b) -> Printf.sprintf "active(s%d,%b)" slot b

(* an op is (dt, kind, slot, arg): [dt] ms after the previous op, on
   timer [slot]:
   0 create (timeout [arg]; the timer restarts itself from on_idle
     [arg mod 3] times; replaces and stops a timer already in the slot)
   1 touch   2 stop   3 restart
   4 probe: schedule an unrelated event [arg - 1] ms from now (0 = this
     very instant, queued behind everything already due now)
   Each op is scheduled from inside the previous one, so its sequence
   number interleaves with the timers' (re-)arms: at a shared instant
   an op may run before or after a timer's due event. *)
let n_slots = 3

let run (module I : IDLE) ops =
  let sim = Sim.create () in
  let log = ref [] in
  let note e = log := e :: !log in
  let slots = Array.make n_slots None in
  let probes = ref 0 in
  let create slot ~timeout ~repeats =
    Option.iter I.stop slots.(slot);
    let left = ref repeats in
    let self = ref None in
    let timer =
      I.create sim ~timeout ~on_idle:(fun () ->
          note (Fire (Sim.now sim, slot));
          if !left > 0 then begin
            decr left;
            Option.iter I.restart !self
          end)
    in
    self := Some timer;
    slots.(slot) <- Some timer
  in
  let apply kind slot arg =
    match kind with
    | 4 ->
      incr probes;
      let id = !probes in
      ignore
        (Sim.schedule sim ~delay:(float_of_int (arg - 1)) (fun () ->
             note (Probe (Sim.now sim, id))))
    | _ ->
      (match kind, slots.(slot) with
       | 0, _ -> create slot ~timeout:(float_of_int arg) ~repeats:(arg mod 3)
       | 1, Some t -> I.touch t
       | 2, Some t -> I.stop t
       | 3, Some t -> I.restart t
       | _ -> ());
      Option.iter (fun t -> note (Active (slot, I.active t))) slots.(slot)
  in
  let rec next time = function
    | [] -> ()
    | (dt, kind, slot, arg) :: rest ->
      let at = time +. float_of_int dt in
      ignore
        (Sim.schedule_at sim ~at (fun () ->
             apply kind slot arg;
             next at rest))
  in
  next 0.0 ops;
  Sim.run sim;
  (List.rev !log, Sim.events_scheduled sim)

let ops_arb =
  let op =
    QCheck.Gen.(
      quad
        (frequency [ (3, return 0); (2, int_range 1 3); (1, int_range 4 12) ])
        (frequency [ (2, return 0); (4, return 1); (1, return 2); (1, return 3); (2, return 4) ])
        (int_bound (n_slots - 1))
        (int_range 1 8))
  in
  QCheck.make
    ~print:
      QCheck.Print.(list (fun (dt, k, s, a) -> Printf.sprintf "+%d:k%d:s%d:%d" dt k s a))
    QCheck.Gen.(list_size (int_range 1 60) op)

let lockstep_prop ops =
  (* qcheck's shrinker may step outside the generator's ranges *)
  let ops =
    List.map (fun (dt, k, s, a) -> (max 0 dt, k, abs s mod n_slots, max 1 a)) ops
  in
  let deferred, d_seqs = run (module Idle) ops in
  let eager, e_seqs = run (module Eager_idle) ops in
  if deferred <> eager then
    QCheck.Test.fail_reportf "event orders diverge:@ deferred [%s]@ eager    [%s]"
      (String.concat "; " (List.map show_entry deferred))
      (String.concat "; " (List.map show_entry eager));
  (* a touch reserves exactly the number an eager re-arm would take *)
  if d_seqs <> e_seqs then
    QCheck.Test.fail_reportf "sequence numbers consumed: %d vs %d" d_seqs e_seqs;
  true

let qcheck_lockstep =
  QCheck.Test.make ~name:"deferred re-arm = eager cancel + re-arm" ~count:2_000 ops_arb
    lockstep_prop

(* the point of deferring: a touch writes two fields and schedules
   nothing *)
let test_touch_allocation_free () =
  let sim = Sim.create () in
  let timer = Idle.create sim ~timeout:10.0 ~on_idle:ignore in
  Idle.touch timer;
  let pending = Sim.pending sim in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Idle.touch timer
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "zero minor words per touch" 0.0 words;
  Alcotest.(check int) "no scheduler entries added" pending (Sim.pending sim)

let suites =
  [
    ( "engine.idle_lockstep",
      [
        QCheck_alcotest.to_alcotest qcheck_lockstep;
        Alcotest.test_case "touch allocates nothing" `Quick test_touch_allocation_free;
      ] );
  ]

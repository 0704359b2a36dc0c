(* GC pause time from the runtime's own event ring (Runtime_events):
   the summed durations of minor collections and major slices between
   [reset] and the last [poll]. Only the traced run uses it. *)

type acc = {
  mutable counting : bool;
  mutable minor_ns : int;
  mutable major_ns : int;
  mutable minor_open : int64;  (* begin timestamp, or -1 *)
  mutable major_open : int64;
  mutable lost : int;
}

type t = { acc : acc; cursor : Runtime_events.cursor; callbacks : Runtime_events.Callbacks.t }

let close acc ts opened add =
  if opened >= 0L && acc.counting then add (Int64.to_int (Int64.sub ts opened))

let create () =
  Runtime_events.start ();
  let acc =
    {
      counting = false;
      minor_ns = 0;
      major_ns = 0;
      minor_open = -1L;
      major_open = -1L;
      lost = 0;
    }
  in
  let runtime_begin _domain ts phase =
    let ts = Runtime_events.Timestamp.to_int64 ts in
    match phase with
    | Runtime_events.EV_MINOR -> acc.minor_open <- ts
    | Runtime_events.EV_MAJOR_SLICE -> acc.major_open <- ts
    | _ -> ()
  in
  let runtime_end _domain ts phase =
    let ts = Runtime_events.Timestamp.to_int64 ts in
    match phase with
    | Runtime_events.EV_MINOR ->
      close acc ts acc.minor_open (fun ns -> acc.minor_ns <- acc.minor_ns + ns);
      acc.minor_open <- -1L
    | Runtime_events.EV_MAJOR_SLICE ->
      close acc ts acc.major_open (fun ns -> acc.major_ns <- acc.major_ns + ns);
      acc.major_open <- -1L
    | _ -> ()
  in
  let lost_events _domain n = acc.lost <- acc.lost + n in
  {
    acc;
    cursor = Runtime_events.create_cursor None;
    callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
  }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

(* drop everything recorded so far and count from here on *)
let reset t =
  t.acc.counting <- false;
  poll t;
  t.acc.minor_ns <- 0;
  t.acc.major_ns <- 0;
  t.acc.lost <- 0;
  t.acc.counting <- true

let minor_s t = float_of_int t.acc.minor_ns *. 1e-9
let major_s t = float_of_int t.acc.major_ns *. 1e-9
let lost t = t.acc.lost

(* Wall clock, memory and kernel-time probes. *)

(* CLOCK_MONOTONIC in ns through bechamel's unboxed, non-allocating
   stub: a span boundary costs one vDSO call and no heap words. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A wall-clock interval split into consecutive laps, stored in a
   preallocated array so that taking a lap allocates nothing. *)
type laps = { times : float array; mutable n : int; mutable last : float }

let laps ~capacity ~start = { times = Array.make capacity 0.0; n = 0; last = start }

let lap l =
  let t = now () in
  l.times.(l.n) <- t -. l.last;
  l.n <- l.n + 1;
  l.last <- t

let lap_times l = Array.sub l.times 0 l.n

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Kernel CPU time of this process so far, in s (getrusage). *)
let sys_s () = (Unix.times ()).Unix.tms_stime

(* Allocation, collection and kernel-time counters, read at the edges
   of a run phase; [delta] gives what the phase used. *)
type probe = {
  alloc_words : float;  (* minor + major - promoted: every word allocated *)
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  kernel_s : float;
}

let probe () =
  let s = Gc.quick_stat () in
  {
    alloc_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    promoted_words = s.Gc.promoted_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
    kernel_s = sys_s ();
  }

let delta a b =
  {
    alloc_words = b.alloc_words -. a.alloc_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
    kernel_s = b.kernel_s -. a.kernel_s;
  }

let zero = { alloc_words = 0.0; promoted_words = 0.0; minor_gcs = 0; major_gcs = 0; kernel_s = 0.0 }

let add a b =
  {
    alloc_words = a.alloc_words +. b.alloc_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    minor_gcs = a.minor_gcs + b.minor_gcs;
    major_gcs = a.major_gcs + b.major_gcs;
    kernel_s = a.kernel_s +. b.kernel_s;
  }

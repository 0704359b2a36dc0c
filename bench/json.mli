(** Minimal JSON values for benchmark artifacts.

    Just enough to emit and re-read the [BENCH_*.json] trajectory
    files: a value type, {!to_string} with proper string escaping and
    NaN/infinity mapped to [null], and {!of_string}, a strict
    recursive-descent parser that round-trips this module's own
    output. *)

type t =
  | Null
  | Bool of bool
  | Float of float
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed (2-space indent), newline-terminated. *)

exception Parse_error of string

val of_string : string -> t
(** @raise Parse_error on malformed input or trailing content. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val to_list_opt : t -> t list option

val to_string_opt : t -> string option

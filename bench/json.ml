(* Minimal JSON support for benchmark artifacts (BENCH_*.json).

   The toolchain has no JSON library baked in, so this implements just
   what the bench harness needs: a value type, a serializer with string
   escaping and float normalization, and a recursive-descent parser
   good enough to round-trip our own output (the smoke test parses what
   it emits). *)

type t =
  | Null
  | Bool of bool
  | Float of float
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf indent v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_nan f || Float.abs f = infinity then
      Buffer.add_string buf "null" (* JSON has no NaN/inf *)
    else Buffer.add_string buf (float_literal f)
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    let inner = indent ^ "  " in
    Buffer.add_string buf "[";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        Buffer.add_string buf inner;
        write buf inner item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf indent;
    Buffer.add_string buf "]"
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    let inner = indent ^ "  " in
    Buffer.add_string buf "{";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        Buffer.add_string buf inner;
        escape_string buf k;
        Buffer.add_string buf ": ";
        write buf inner item)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf indent;
    Buffer.add_string buf "}"

let to_string v =
  let buf = Buffer.create 1024 in
  write buf "" v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type parser_state = { input : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" st.pos msg))

let peek_char st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek_char st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek_char st with
  | Some got when got = c -> advance st
  | Some got -> fail st (Printf.sprintf "expected %c, got %c" c got)
  | None -> fail st (Printf.sprintf "expected %c, got end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.input && String.sub st.input st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek_char st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek_char st with
       | Some '"' -> Buffer.add_char buf '"'; advance st
       | Some '\\' -> Buffer.add_char buf '\\'; advance st
       | Some '/' -> Buffer.add_char buf '/'; advance st
       | Some 'n' -> Buffer.add_char buf '\n'; advance st
       | Some 'r' -> Buffer.add_char buf '\r'; advance st
       | Some 't' -> Buffer.add_char buf '\t'; advance st
       | Some 'b' -> Buffer.add_char buf '\b'; advance st
       | Some 'f' -> Buffer.add_char buf '\012'; advance st
       | Some 'u' ->
         advance st;
         if st.pos + 4 > String.length st.input then fail st "truncated \\u escape";
         let hex = String.sub st.input st.pos 4 in
         let code =
           try int_of_string ("0x" ^ hex) with _ -> fail st "bad \\u escape"
         in
         st.pos <- st.pos + 4;
         (* we only emit \u for control characters; anything else is
            preserved as a literal codepoint below 256 or replaced *)
         if code < 256 then Buffer.add_char buf (Char.chr code)
         else Buffer.add_char buf '?'
       | Some c -> fail st (Printf.sprintf "bad escape \\%c" c)
       | None -> fail st "unterminated escape");
      loop ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec eat () =
    match peek_char st with
    | Some c when is_num_char c ->
      advance st;
      eat ()
    | Some _ | None -> ()
  in
  eat ();
  let text = String.sub st.input start (st.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None ->
    (match float_of_string_opt text with
     | Some f -> Float f
     | None -> fail st (Printf.sprintf "bad number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek_char st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek_char st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let key = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek_char st with
        | Some ',' ->
          advance st;
          members ()
        | Some '}' -> advance st
        | _ -> fail st "expected , or } in object"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek_char st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek_char st with
        | Some ',' ->
          advance st;
          elements ()
        | Some ']' -> advance st
        | _ -> fail st "expected , or ] in array"
      in
      elements ();
      List (List.rev !items)
    end
  | Some '"' -> String (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let of_string s =
  let st = { input = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing content after value";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key v =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

let to_list_opt v = match v with List items -> Some items | _ -> None

let to_string_opt v = match v with String s -> Some s | _ -> None

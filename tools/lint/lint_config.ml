(* Minimal TOML-subset loader for rrmp_lint.

   Supported syntax — exactly what lint.toml needs, nothing more:
     [section]
     key = "string"
     key = ["a", "b", "c"]
     # comment
   Values must fit on one line. Unknown sections/keys are an error so a
   typo in lint.toml cannot silently disable a rule. *)

type t = {
  roots : string list;  (* directories scanned, relative to --root *)
  exclude : string list;  (* path prefixes skipped entirely (fixtures) *)
  d1_dirs : string list;
  d1_allow : string list;  (* files allowed to touch the ambient PRNG *)
  d2_dirs : string list;
  d3_dirs : string list;
  d3_id_idents : string list;  (* identifier names treated as protocol ids *)
  d4_dirs : string list;
  d4_allow : string list;  (* files allowed to read the environment *)
  h1_files : string list;  (* modules declared allocation-free *)
  m1_dirs : string list;
  m1_exempt : string list;
  (* typed (cmt) pass *)
  typed_dirs : string list;  (* directories searched for .cmt input *)
  p_roots : string list;
      (* callees whose function arguments become parallel-task roots:
         closures handed to these may run on a pool worker domain *)
  p_dirs : string list;  (* where P findings are reported ([""] = everywhere) *)
  a_files : string list;  (* modules under the typed allocation rules *)
}

let default =
  {
    roots = [ "lib" ];
    exclude = [];
    d1_dirs = [ "lib" ];
    d1_allow = [];
    d2_dirs = [ "lib" ];
    d3_dirs = [];
    d3_id_idents = [];
    d4_dirs = [ "lib" ];
    d4_allow = [];
    h1_files = [];
    m1_dirs = [ "lib" ];
    m1_exempt = [];
    typed_dirs = [ "lib" ];
    p_roots = [];
    p_dirs = [ "lib" ];
    a_files = [];
  }

exception Bad_config of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad_config s)) fmt

let strip s = String.trim s

let parse_string_atom ~line s =
  let s = strip s in
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
  else fail "line %d: expected a double-quoted string, got %S" line s

let parse_value ~line s =
  let s = strip s in
  let n = String.length s in
  if n >= 2 && s.[0] = '[' && s.[n - 1] = ']' then begin
    let inner = strip (String.sub s 1 (n - 2)) in
    if inner = "" then []
    else
      String.split_on_char ',' inner
      |> List.filter (fun p -> strip p <> "")
      |> List.map (parse_string_atom ~line)
  end
  else [ parse_string_atom ~line s ]

let load path =
  let ic =
    try open_in path with Sys_error e -> fail "cannot open config %s: %s" path e
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let cfg = ref default in
  let section = ref "" in
  let lineno = ref 0 in
  (try
     while true do
       let raw = input_line ic in
       incr lineno;
       let line =
         match String.index_opt raw '#' with
         | Some i -> strip (String.sub raw 0 i)
         | None -> strip raw
       in
       if line = "" then ()
       else if line.[0] = '[' then begin
         let n = String.length line in
         if line.[n - 1] <> ']' then fail "line %d: unterminated section header" !lineno;
         section := String.sub line 1 (n - 2)
       end
       else
         match String.index_opt line '=' with
         | None -> fail "line %d: expected key = value" !lineno
         | Some i ->
           let key = strip (String.sub line 0 i) in
           let v =
             parse_value ~line:!lineno
               (String.sub line (i + 1) (String.length line - i - 1))
           in
           let c = !cfg in
           cfg :=
             (match (!section, key) with
              | "roots", "dirs" -> { c with roots = v }
              | "roots", "exclude" -> { c with exclude = v }
              | "d1", "dirs" -> { c with d1_dirs = v }
              | "d1", "allow_files" -> { c with d1_allow = v }
              | "d2", "dirs" -> { c with d2_dirs = v }
              | "d3", "dirs" -> { c with d3_dirs = v }
              | "d3", "id_idents" -> { c with d3_id_idents = v }
              | "d4", "dirs" -> { c with d4_dirs = v }
              | "d4", "allow_files" -> { c with d4_allow = v }
              | "h1", "files" -> { c with h1_files = v }
              | "m1", "dirs" -> { c with m1_dirs = v }
              | "m1", "exempt" -> { c with m1_exempt = v }
              | "typed", "dirs" -> { c with typed_dirs = v }
              | "p", "roots" -> { c with p_roots = v }
              | "p", "dirs" -> { c with p_dirs = v }
              | "a", "files" -> { c with a_files = v }
              | s, k -> fail "line %d: unknown setting [%s] %s" !lineno s k)
     done
   with End_of_file -> ());
  !cfg

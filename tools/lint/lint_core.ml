(* rrmp_lint core: a compiler-libs AST pass over the tree.

   Each rule guards an invariant no compiler checks:

   D1  banned nondeterminism sources — ambient PRNG ([Random.int] &
       friends), wall clocks ([Sys.time], [Unix.gettimeofday]) and the
       polymorphic [Hashtbl.hash] in [lib/]. Seeded experiment reports
       must be byte-identical across runs and [-j] levels; one ambient
       draw breaks that silently.
   D2  unordered-container escape — [Hashtbl.iter]/[fold] (including
       [Hashtbl.Make] instances: [*.Table.iter], [Tbl.fold], ...) whose
       result is not immediately sorted. Auto-cleared when the call
       feeds straight into [List.sort]-style calls (directly or via
       [|>]); everything else needs a sort or an audited
       [@lint.allow "D2 ..."] justification.
   D3  polymorphic structure on protocol types — applied bare
       [compare]/[Stdlib.compare], [=]/[<>] with a structural operand
       ([Some _], tuples, records, non-empty list literals) or an
       id-named operand, and direct [Hashtbl.*] (default hash) use, in
       the protocol directories. Protocol ids must go through their
       module comparators ([Msg_id.compare], [Node_id.equal], ...).
   D4  hidden environment inputs — [Sys.getenv]/[getenv_opt] outside
       the audited entry points. "Measured" results must not depend on
       ambient environment state.
   H1  allocation hazards in modules declared hot by lint.toml —
       [( @ )], [List.concat]/[concat_map]/[append], [( ^ )],
       [Printf.sprintf]/[Format.asprintf]. These modules carry a
       0.0-minor-words/op contract measured by the allocation suites.
   H2  boxing hazards in the exact-zero modules listed by lint.toml —
       inline [fun]/[function] literals in argument position (a
       closure cell per call), option-boxing lookups
       ([find_opt]/[assoc_opt]/[nth_opt]: a [Some] box per hit), and
       [Some _]/tuple construction (constructor argument tuples are
       not flagged — they are the constructor's own block). These are
       the allocations small enough to hide from review but large
       enough to fail an exactly-0.0 words/op gate.
   M1  every [lib/**/*.ml] has a matching [.mli]; interfaces are how
       the invariants above stay local.
   S1  suppression hygiene — every [@lint.allow] carries a known rule
       id plus a non-empty justification; anything else is itself a
       finding.

   Suppressions: [@lint.allow "D2 why this is safe"] on an expression
   or a let-binding clears findings of that rule within the construct's
   span; [@@@lint.allow "..."] at the top of a file clears the whole
   file. The audit trail (file, rule, justification) lands in the JSON
   report. *)

open Parsetree

module Config = Lint_config

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
  hint : string;
}

type suppression = {
  s_file : string;
  s_line : int;  (* line of the attribute itself *)
  s_rule : string;
  s_just : string;
  s_lo : int;  (* suppressed span, inclusive line range *)
  s_hi : int;
}

type report = {
  findings : finding list;  (* unsuppressed, sorted *)
  suppressed : finding list;  (* cleared by an audited allow *)
  suppressions : suppression list;
  files_scanned : int;
}

(* P/E/A belong to the typed (cmt) layer in Lint_typed; they are
   registered here so S1 accepts their suppressions and both layers
   share one audit grammar. *)
let known_rules = [ "D1"; "D2"; "D3"; "D4"; "H1"; "H2"; "M1"; "S1"; "P"; "E"; "A" ]

(* ------------------------------------------------------------------ *)
(* Path helpers (paths are root-relative, '/'-separated)               *)
(* ------------------------------------------------------------------ *)

let under_dir path dir =
  path = dir || String.starts_with ~prefix:(dir ^ "/") path

let in_dirs path dirs = List.exists (under_dir path) dirs

let in_files path files = List.mem path files

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)
(* ------------------------------------------------------------------ *)

let flat_ident lid =
  let s = String.concat "." (Longident.flatten lid) in
  if String.starts_with ~prefix:"Stdlib." s then
    String.sub s 7 (String.length s - 7)
  else s

let last_two s =
  match List.rev (String.split_on_char '.' s) with
  | f :: m :: _ -> Some (m, f)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rule tables                                                         *)
(* ------------------------------------------------------------------ *)

let d1_banned =
  [
    ("Random.self_init", "seeds from the OS entropy pool");
    ("Random.init", "mutates the shared ambient PRNG");
    ("Random.full_init", "mutates the shared ambient PRNG");
    ("Random.int", "draws from the shared ambient PRNG");
    ("Random.full_int", "draws from the shared ambient PRNG");
    ("Random.int32", "draws from the shared ambient PRNG");
    ("Random.int64", "draws from the shared ambient PRNG");
    ("Random.float", "draws from the shared ambient PRNG");
    ("Random.bits", "draws from the shared ambient PRNG");
    ("Random.bits32", "draws from the shared ambient PRNG");
    ("Random.bits64", "draws from the shared ambient PRNG");
    ("Random.bool", "draws from the shared ambient PRNG");
    ("Sys.time", "reads the process clock");
    ("Unix.gettimeofday", "reads the wall clock");
    ("Unix.time", "reads the wall clock");
    ("Hashtbl.hash", "polymorphic hash couples layout to structure");
    ("Hashtbl.seeded_hash", "polymorphic hash couples layout to structure");
    ("Hashtbl.randomize", "randomizes every subsequent table layout");
  ]

let d4_banned = [ "Sys.getenv"; "Sys.getenv_opt"; "Unix.getenv"; "Unix.environment" ]

let h1_banned =
  [
    ("@", "list append allocates the whole left spine");
    ("List.append", "list append allocates the whole left spine");
    ("List.concat", "allocates every intermediate cons");
    ("List.concat_map", "allocates every intermediate cons");
    ("^", "string concat allocates a fresh string");
    ("Printf.sprintf", "allocates a format closure and a fresh string");
    ("Format.sprintf", "allocates a format closure and a fresh string");
    ("Format.asprintf", "allocates a formatter and a fresh string");
  ]

(* H2: lookups whose hit path allocates a [Some] box *)
let h2_opt_lookups = [ "find_opt"; "assoc_opt"; "nth_opt" ]

let sort_heads =
  [
    "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
    "Array.sort"; "Array.stable_sort"; "Array.fast_sort";
  ]

(* Functor-made hashtables are fine under D3; only *default-hash*
   table construction/use is banned there. iter/fold belong to D2 and
   the hash functions themselves to D1 — don't double-flag. *)
let d3_hashtbl_exempt =
  [
    "Hashtbl.Make"; "Hashtbl.MakeSeeded"; "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.hash";
    "Hashtbl.seeded_hash"; "Hashtbl.randomize";
  ]

(* ------------------------------------------------------------------ *)
(* Per-file scan                                                       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cfg : Config.t;
  path : string;  (* root-relative *)
  mutable raw : finding list;
  mutable spans : suppression list;
  mutable sorted_spans : (int * int) list;  (* D2 auto-clear regions *)
  mutable ctor_arg_tuples : Location.t list;
      (* tuples that are a constructor's argument list, not a value:
         [C (a, b)] parses as construct-of-tuple; H2 must not flag it *)
}

let add ctx ~loc ~rule ~message ~hint =
  let p = loc.Location.loc_start in
  ctx.raw <-
    { file = ctx.path; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; rule; message; hint }
    :: ctx.raw

let span_of (loc : Location.t) = (loc.loc_start.pos_lnum, loc.loc_end.pos_lnum)

(* [@lint.allow "RULE justification"] — returns the parsed suppression
   or an S1 finding for anything malformed. *)
let parse_allow ctx (attr : attribute) ~(scope : Location.t) =
  let s1 message =
    add ctx ~loc:attr.attr_loc ~rule:"S1" ~message
      ~hint:"write [@lint.allow \"<RULE> <why this site is safe>\"]"
  in
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (text, _, _)); _ }, _);
          _;
        };
      ] -> (
    let text = String.trim text in
    match String.index_opt text ' ' with
    | None ->
      if List.mem text known_rules then
        s1 (Printf.sprintf "suppression of %s has no justification" text)
      else s1 (Printf.sprintf "malformed suppression %S" text)
    | Some i ->
      let rule = String.sub text 0 i in
      let just = String.trim (String.sub text i (String.length text - i)) in
      if not (List.mem rule known_rules) then
        s1 (Printf.sprintf "unknown rule id %S in suppression" rule)
      else if just = "" then
        s1 (Printf.sprintf "suppression of %s has no justification" rule)
      else begin
        let lo, hi = span_of scope in
        ctx.spans <-
          {
            s_file = ctx.path;
            s_line = attr.attr_loc.loc_start.pos_lnum;
            s_rule = rule;
            s_just = just;
            s_lo = lo;
            s_hi = hi;
          }
          :: ctx.spans
      end)
  | _ -> s1 "suppression payload must be a literal string"

let collect_allows ctx attrs ~scope =
  List.iter
    (fun (a : attribute) -> if a.attr_name.txt = "lint.allow" then parse_allow ctx a ~scope)
    attrs

(* ------------------------------------------------------------------ *)
(* Expression checks                                                   *)
(* ------------------------------------------------------------------ *)

let head_ident expr =
  let rec go e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> Some (flat_ident txt)
    | Pexp_apply (f, _) -> go f
    | _ -> None
  in
  go expr

let check_ident ctx ~loc name =
  let cfg = ctx.cfg in
  let path = ctx.path in
  (* D1: ambient nondeterminism sources *)
  (if in_dirs path cfg.d1_dirs && not (in_files path cfg.d1_allow) then
     match List.assoc_opt name d1_banned with
     | Some why ->
       add ctx ~loc ~rule:"D1"
         ~message:(Printf.sprintf "%s — %s" name why)
         ~hint:
           "draw from Engine.Rng (explicit seeded state) / Sim.now (virtual time) / an \
            explicit hash instead"
     | None -> ());
  (* D4: hidden environment inputs *)
  if
    in_dirs path cfg.d4_dirs
    && (not (in_files path cfg.d4_allow))
    && List.mem name d4_banned
  then
    add ctx ~loc ~rule:"D4"
      ~message:(Printf.sprintf "%s reads ambient environment state" name)
      ~hint:"thread the setting through an explicit config value or an allow-listed entry point";
  (* D2: unordered-container iteration escaping *)
  (if in_dirs path cfg.d2_dirs then
     match last_two name with
     | Some (m, (("iter" | "fold") as f))
       when m = "Hashtbl" || m = "Table" || m = "Tbl" ->
       add ctx ~loc ~rule:"D2"
         ~message:
           (Printf.sprintf "%s visits entries in hash-layout order, which is not part of any \
                            contract" name)
         ~hint:
           (Printf.sprintf "sort the %s result immediately (List.sort after the fold), or \
                            justify order-insensitivity with [@lint.allow \"D2 ...\"]" f)
     | _ -> ());
  (* D3 (partial): direct default-hash Hashtbl use on protocol types *)
  if
    in_dirs path cfg.d3_dirs
    && String.starts_with ~prefix:"Hashtbl." name
    && (not (List.mem name d3_hashtbl_exempt))
    && not (List.mem_assoc name d1_banned)
  then
    add ctx ~loc ~rule:"D3"
      ~message:(Printf.sprintf "%s uses the polymorphic default hash on protocol data" name)
      ~hint:"use Msg_id.Table / Node_id.Table (Hashtbl.Make over the module comparators)";
  (* H1: allocation hazards in hot modules *)
  (if in_files path cfg.h1_files then
     match List.assoc_opt name h1_banned with
     | Some why ->
       add ctx ~loc ~rule:"H1"
         ~message:(Printf.sprintf "%s in a hot module — %s" name why)
         ~hint:
           "this module carries a 0-minor-words/op contract: preallocate, use rev_append off \
            the hot path, or move the formatting behind an observer gate"
     | None -> ());
  (* H2: option-boxing lookups in exact-zero modules *)
  if in_files path cfg.h2_files then
    match last_two name with
    | Some (_, f) when List.mem f h2_opt_lookups ->
      add ctx ~loc ~rule:"H2"
        ~message:(Printf.sprintf "%s allocates a Some box on every hit" name)
        ~hint:
          "use find with an [exception Not_found ->] arm so the hit path returns the value \
           unboxed"
    | _ -> ()

let structural_operand e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "::"; _ }, Some _) -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | Pexp_tuple _ -> true
  | Pexp_record _ -> true
  | _ -> false

let id_operand cfg e =
  let name_matches n = List.mem n cfg.Config.d3_id_idents in
  match e.pexp_desc with
  | Pexp_ident { txt = Lident n; _ } -> name_matches n
  | Pexp_field (_, { txt; _ }) -> (
    match List.rev (Longident.flatten txt) with
    | n :: _ -> name_matches n
    | [] -> false)
  | _ -> false

let check_apply ctx fn args ~loc =
  let cfg = ctx.cfg in
  (* H2: an inline [fun] literal handed to a higher-order callee
     allocates a closure cell (plus its captures) on every call *)
  if in_files ctx.path cfg.h2_files then
    List.iter
      (fun ((_, a) : Asttypes.arg_label * expression) ->
        match a.pexp_desc with
        | Pexp_fun _ | Pexp_function _ ->
          add ctx ~loc:a.pexp_loc ~rule:"H2"
            ~message:"inline closure in argument position allocates on every call"
            ~hint:
              "hoist the function to a toplevel binding, or store the thunk once in a \
               mutable field at creation time"
        | _ -> ())
      args;
  (* D2 auto-clear: a fold piped straight into a sort is fine *)
  (match head_ident fn with
   | Some "|>" -> (
     match args with
     | [ (_, lhs); (_, rhs) ] -> (
       match head_ident rhs with
       | Some h when List.mem h sort_heads ->
         ctx.sorted_spans <- span_of lhs.pexp_loc :: ctx.sorted_spans
       | _ -> ())
     | _ -> ())
   | Some h when List.mem h sort_heads -> ctx.sorted_spans <- span_of loc :: ctx.sorted_spans
   | _ -> ());
  if in_dirs ctx.path cfg.d3_dirs then begin
    (* D3: applied polymorphic compare *)
    (match fn.pexp_desc with
     | Pexp_ident { txt; _ } when flat_ident txt = "compare" && List.length args >= 2 ->
       add ctx ~loc ~rule:"D3"
         ~message:"applied polymorphic compare on protocol data"
         ~hint:"use the module comparator (Msg_id.compare, Node_id.compare, Int.compare, ...)"
     | _ -> ());
    (* D3: polymorphic =/<> with a structural or id-named operand *)
    match fn.pexp_desc with
    | Pexp_ident { txt = Lident (("=" | "<>") as op); _ } -> (
      match args with
      | [ (_, a); (_, b) ] ->
        if structural_operand a || structural_operand b then
          add ctx ~loc ~rule:"D3"
            ~message:
              (Printf.sprintf "polymorphic ( %s ) compares structural values on a protocol \
                               path" op)
            ~hint:
              "match on the shape instead, or compare through the type's equal (Msg_id.equal, \
               Option.equal, ...)"
        else if id_operand cfg a || id_operand cfg b then
          add ctx ~loc ~rule:"D3"
            ~message:
              (Printf.sprintf "polymorphic ( %s ) on an identifier-typed value" op)
            ~hint:"use the id module's equal (Msg_id.equal, Node_id.equal, ...)"
      | _ -> ())
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Iterator                                                            *)
(* ------------------------------------------------------------------ *)

let make_iterator ctx =
  let open Ast_iterator in
  let expr it e =
    collect_allows ctx e.pexp_attributes ~scope:e.pexp_loc;
    (match e.pexp_desc with
     | Pexp_ident { txt; loc } -> check_ident ctx ~loc (flat_ident txt)
     | Pexp_apply (fn, args) -> check_apply ctx fn args ~loc:e.pexp_loc
     | _ -> ());
    (* H2: Some/tuple boxing in exact-zero modules. The iterator visits
       parents first, so a constructor's argument tuple is registered
       before the tuple node itself is reached. *)
    (match e.pexp_desc with
     | Pexp_construct ({ txt = Lident "Some"; _ }, Some _)
       when in_files ctx.path ctx.cfg.h2_files ->
       add ctx ~loc:e.pexp_loc ~rule:"H2"
         ~message:"Some construction boxes the value on the hot path"
         ~hint:
           "restructure so the steady state carries the value unboxed (exception arm, \
            sentinel, or a dedicated field)"
     | Pexp_construct (_, Some { pexp_desc = Pexp_tuple _; pexp_loc = arg_loc; _ }) ->
       ctx.ctor_arg_tuples <- arg_loc :: ctx.ctor_arg_tuples
     | Pexp_tuple _
       when in_files ctx.path ctx.cfg.h2_files
            && not (List.mem e.pexp_loc ctx.ctor_arg_tuples) ->
       add ctx ~loc:e.pexp_loc ~rule:"H2"
         ~message:"tuple construction allocates a block on the hot path"
         ~hint:"pass the components separately or pack them into an existing record/int"
     | _ -> ());
    default_iterator.expr it e
  in
  let value_binding it vb =
    collect_allows ctx vb.pvb_attributes ~scope:vb.pvb_loc;
    (* [let msg [@lint.allow "..."] = e]: written on the enclosing let,
       but the parser attaches the attribute to the binding *pattern* —
       honor that placement with the same whole-binding scope, else the
       suppression silently fails and the site is re-reported *)
    collect_allows ctx vb.pvb_pat.ppat_attributes ~scope:vb.pvb_loc;
    default_iterator.value_binding it vb
  in
  let structure_item it si =
    (match si.pstr_desc with
     | Pstr_attribute a when a.attr_name.txt = "lint.allow" ->
       (* floating [@@@lint.allow]: suppress for the whole file *)
       parse_allow ctx a
         ~scope:
           {
             si.pstr_loc with
             loc_start = { si.pstr_loc.loc_start with pos_lnum = 1 };
             loc_end = { si.pstr_loc.loc_end with pos_lnum = max_int };
           }
     | _ -> ());
    default_iterator.structure_item it si
  in
  { default_iterator with expr; value_binding; structure_item }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let parse_error_finding ~path exn =
  let line, message =
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      ( report.Location.main.loc.loc_start.pos_lnum,
        Format.asprintf "%t" report.Location.main.txt )
    | _ -> (1, Printexc.to_string exn)
  in
  { file = path; line; col = 0; rule = "S1"; message = "parse error: " ^ message;
    hint = "rrmp_lint parses with the project compiler; this file cannot build" }

(* Scan one file; returns raw findings (suppression not yet applied),
   suppression spans, and sorted-context spans. *)
let scan_source cfg ~path ~source =
  let ctx = { cfg; path; raw = []; spans = []; sorted_spans = []; ctor_arg_tuples = [] } in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  (try
     if Filename.check_suffix path ".mli" then
       ignore (Parse.interface lexbuf : signature)
     else begin
       let str = Parse.implementation lexbuf in
       let it = make_iterator ctx in
       it.structure it str
     end
   with exn -> ctx.raw <- parse_error_finding ~path exn :: ctx.raw);
  ctx

let apply_spans ctx =
  let in_sorted f = List.exists (fun (lo, hi) -> f.line >= lo && f.line <= hi) ctx.sorted_spans in
  let covering f =
    List.find_opt
      (fun s -> s.s_rule = f.rule && f.line >= s.s_lo && f.line <= s.s_hi)
      ctx.spans
  in
  List.fold_left
    (fun (keep, dropped) f ->
      if f.rule = "D2" && in_sorted f then (keep, dropped)  (* sorted: not a finding at all *)
      else
        match covering f with
        | Some _ -> (keep, f :: dropped)
        | None -> (f :: keep, dropped))
    ([], []) ctx.raw

(* ------------------------------------------------------------------ *)
(* Tree walk                                                           *)
(* ------------------------------------------------------------------ *)

(* build output is not the program: inside the dune build context the
   scanned dirs also hold object dirs ([.foo.objs]) and test output
   ([_build]) that other rules write while this one runs *)
let build_output name = name = "_build" || String.starts_with ~prefix:"." name

let rec walk ~root rel acc =
  let abs = if rel = "" then root else Filename.concat root rel in
  if Sys.is_directory abs then
    Array.fold_left
      (fun acc name ->
        if build_output name then acc
        else
          let child = if rel = "" then name else rel ^ "/" ^ name in
          walk ~root child acc)
      acc
      (let entries = Sys.readdir abs in
       Array.sort String.compare entries;
       entries)
  else if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli" then
    rel :: acc
  else acc

let m1_findings cfg files =
  let files_set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace files_set f ()) files;
  List.filter_map
    (fun f ->
      if
        Filename.check_suffix f ".ml"
        && in_dirs f cfg.Config.m1_dirs
        && (not (List.mem f cfg.m1_exempt))
        && not (Hashtbl.mem files_set (f ^ "i"))
      then
        Some
          {
            file = f;
            line = 1;
            col = 0;
            rule = "M1";
            message = "module has no .mli interface";
            hint = "add a sibling .mli so the module's contract is explicit";
          }
      else None)
    files

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let scan_tree ?(root = ".") (cfg : Config.t) =
  let files =
    List.concat_map
      (fun dir -> List.rev (walk ~root dir []))
      cfg.roots
    |> List.filter (fun f -> not (in_dirs f cfg.exclude))
    |> List.sort String.compare
  in
  let keep = ref [] and dropped = ref [] and spans = ref [] in
  List.iter
    (fun rel ->
      let source = read_file (Filename.concat root rel) in
      let ctx = scan_source cfg ~path:rel ~source in
      let k, d = apply_spans ctx in
      keep := k @ !keep;
      dropped := d @ !dropped;
      spans := ctx.spans @ !spans)
    files;
  let m1 = m1_findings cfg files in
  {
    findings = List.sort compare_findings (m1 @ !keep);
    suppressed = List.sort compare_findings !dropped;
    suppressions =
      List.sort
        (fun a b ->
          let c = String.compare a.s_file b.s_file in
          if c <> 0 then c else Int.compare a.s_line b.s_line)
        !spans;
    files_scanned = List.length files;
  }

(* Convenience for fixture tests: scan a single file with suppression
   and sorted-context post-processing applied. *)
let scan_file ?(root = ".") (cfg : Config.t) rel =
  let source = read_file (Filename.concat root rel) in
  let ctx = scan_source cfg ~path:rel ~source in
  let keep, dropped = apply_spans ctx in
  (List.sort compare_findings keep, List.sort compare_findings dropped, ctx.spans)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_finding oc f =
  Printf.fprintf oc "%s:%d:%d: [%s] %s\n    hint: %s\n" f.file f.line f.col f.rule f.message
    f.hint

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_report r =
  let buf = Buffer.create 4096 in
  let finding f =
    Printf.sprintf
      "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\",\"hint\":\"%s\"}"
      (json_escape f.file) f.line f.col f.rule (json_escape f.message) (json_escape f.hint)
  in
  let suppression s =
    Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"justification\":\"%s\"}"
      (json_escape s.s_file) s.s_line s.s_rule (json_escape s.s_just)
  in
  Buffer.add_string buf "{\n  \"version\": \"lint-report/v1\",\n";
  Printf.bprintf buf "  \"files_scanned\": %d,\n" r.files_scanned;
  Printf.bprintf buf "  \"rules\": [%s],\n"
    (String.concat ", " (List.map (fun r -> "\"" ^ r ^ "\"") known_rules));
  Printf.bprintf buf "  \"findings\": [%s],\n"
    (String.concat ",\n    " (List.map finding r.findings));
  Printf.bprintf buf "  \"suppressions\": [%s]\n"
    (String.concat ",\n    " (List.map suppression r.suppressions));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* rrmp_lint typed layer: a whole-program pass over the compiler's
   .cmt output (Cmt_format + Tast_iterator, zero dependencies beyond
   compiler-libs). Where the Parsetree layer sees tokens, this layer
   sees types and crosses module boundaries: it builds an intra-repo
   call graph and enforces three rule families the textual pass cannot
   express.

   P  parallel/domain-safety — closures handed to the configured task
      spawners ([p] roots in lint.toml: [Pool.parallel_for],
      [Shard.run], [Runner.par_*], [Sim.schedule*], ...) may run on a
      pool worker domain. Everything reachable from those closures
      through the call graph is "task scope"; inside task scope, any
      read or write of *module-level* mutable state — a top-level
      [ref], a mutable record field of a top-level value, a
      module-scope [Hashtbl]/functor [Table] — is a potential data
      race the single-core container can never exercise, and is
      flagged unless the state is an [Atomic.t] (atomic ops never
      match the access patterns), per-domain-indexed, or audited with
      [@lint.allow "P ..."]. Aliased state (a ref passed as an
      argument) is out of scope: the rule guards the state a module
      *owns*, which is where unsynchronized sharing hides. Of a
      container op's operands only the container counts (an array,
      [bytes], or a container module's [t], type abbreviations
      expanded): a top-level index or stored value is not the state
      being mutated.

   E  exception-safety — a function marked [@lint.never_raise] must
      not *transitively* reach [raise]/[failwith]/[invalid_arg], a
      known [Not_found]-raising lookup ([Hashtbl.find], [List.find],
      functor-made [Table.find], any [Unix.] syscall), or a refutable
      match (the Typedtree records partiality), checked over the call
      graph. A raising site is cleared when it sits under a local
      catch — a [try] body or the scrutinee of a [match] with an
      [exception] arm (the repo's find-with-exception idiom) — or
      under an audited [@lint.allow "E ..."]. Bounds checks
      ([Array.get], [String.get]) and calls through function-typed
      parameters are out of scope by design: the first would flag
      every index, the second is the caller's contract.

   A  typed allocation — on the exactly-0.0-gated modules ([a] files
      in lint.toml) the typed layer supersedes the textual H2
      heuristics: a call to an intra-repo function whose result type
      is [float] boxes the return; a closure that captures locals
      inside a [for]/[while] loop allocates per iteration (closed
      closures are statically allocated and stay silent); a function
      parameter typed as a bigarray that is still polymorphic in kind
      or layout compiles every access to the generic dispatch
      primitive (the 8x monomorphization lesson); and [Some]/tuple
      construction or an option-boxing [find_opt]-family lookup
      allocates on the gated path. Constructor arguments are typed
      nodes here, so the Parsetree construct-of-tuple ambiguity does
      not exist.

   Suppressions use the same [@lint.allow "RULE why"] grammar as the
   textual layer and land in the same audit trail. *)

open Typedtree
module Config = Lint_config

type finding = Lint_core.finding

type suppression = Lint_core.suppression

type stats = {
  units : int;  (* cmt files analyzed *)
  defs : int;  (* structure-level value bindings in the graph *)
  edges : int;  (* resolved def-to-def references *)
  task_roots : int;  (* defs rooted as parallel-task entry points *)
  task_reachable : int;  (* defs reachable from any task root *)
  never_raise_defs : int;  (* defs carrying [@lint.never_raise] *)
}

type result = {
  findings : finding list;
  suppressed : finding list;
  suppressions : suppression list;
  graph_edges : (string * string) list;  (* caller key, callee key *)
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Rule tables                                                         *)
(* ------------------------------------------------------------------ *)

let raise_prims = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* last-two suffixes [Mod.fn] that raise on miss/empty *)
let raising_lookups =
  [
    ("Hashtbl", "find"); ("Table", "find"); ("Tbl", "find");
    ("List", "find"); ("List", "hd"); ("List", "tl"); ("List", "nth"); ("List", "assoc");
    ("Option", "get"); ("Stack", "pop"); ("Stack", "top");
    ("Queue", "pop"); ("Queue", "peek"); ("Queue", "take");
  ]

(* container modules whose ops on a module-level value are P accesses *)
let container_mods = [ "Hashtbl"; "Table"; "Tbl"; "Queue"; "Stack"; "Buffer" ]

let deref_ops = [ "!"; ":="; "incr"; "decr" ]

let array_writes = [ "Array.set"; "Array.unsafe_set"; "Bytes.set"; "Bytes.unsafe_set"; "Array.fill"; "Bytes.fill" ]

let opt_lookups = [ "find_opt"; "assoc_opt"; "nth_opt" ]

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* "Rrmp__Buffer" -> "Buffer"; "Rrmp__" -> ""; "Fx_glob" -> "Fx_glob" *)
let strip_wrapper c =
  let n = String.length c in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if c.[i] = '_' && c.[i + 1] = '_' then last_sep (i + 1) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | None -> c
  | Some j -> String.sub c j (n - j)

let rec flat_path = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> flat_path p @ [ s ]
  | Path.Papply (p, _) -> flat_path p
  | Path.Pextra_ty (p, _) -> flat_path p

let normalize_components comps =
  List.filter_map
    (fun c ->
      let c' = strip_wrapper c in
      if c' = "" then None else Some c')
    comps

let dotted = String.concat "."

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

(* findings carry the path as the compiler recorded it (relative to
   the build root for dune-built units) *)
let file_of (loc : Location.t) =
  let f = loc.loc_start.pos_fname in
  if String.starts_with ~prefix:"./" f then String.sub f 2 (String.length f - 2) else f

(* ------------------------------------------------------------------ *)
(* Graph model                                                         *)
(* ------------------------------------------------------------------ *)

type site =
  | Edge of { callee : string; caught : bool; loc : Location.t }
  | Raises of { what : string; caught : bool; loc : Location.t }

type access = {
  a_file : string;
  a_line : int;
  a_col : int;
  a_what : string;  (* rendered description *)
}

type def = {
  key : string;
  d_file : string;
  d_line : int;
  d_size : int;  (* body node count; proxy for ocamlopt inlinability *)
  never_raise : bool;
  mutable sites : site list;
  mutable accesses : access list;
  mutable may_raise : bool;
  mutable witness : site option;  (* first site that made may_raise true *)
}

type unit_info = {
  u_name : string;  (* normalized unit module name, e.g. "Buffer" *)
  u_file : string;  (* source path, e.g. "lib/rrmp/buffer.ml" *)
  u_str : structure;
  u_stamps : (string, string) Hashtbl.t;  (* Ident.unique_name -> def key *)
  u_loadpath : string list;  (* include dirs it was compiled with *)
}

type graph = {
  cfg : Config.t;
  defs : (string, def) Hashtbl.t;  (* def key -> def *)
  by_loc : (string * int * int, def) Hashtbl.t;  (* vb_loc -> def *)
  roots : (string, unit) Hashtbl.t;  (* task-rooted def keys *)
  mutable task_accesses : access list;  (* accesses inside root closures *)
  mutable spans : suppression list;
  mutable raw_a : finding list;  (* A findings, suppression not yet applied *)
}

let add_span g ~file ~line ~rule ~just ~lo ~hi =
  g.spans <-
    { Lint_core.s_file = file; s_line = line; s_rule = rule; s_just = just; s_lo = lo; s_hi = hi }
    :: g.spans

(* [@lint.allow "RULE why"] / [@lint.never_raise] — malformed allow
   payloads are the textual layer's S1 business; here they are skipped *)
let scan_attrs g (attrs : Parsetree.attributes) ~(scope : Location.t) =
  let never = ref false in
  List.iter
    (fun (a : Parsetree.attribute) ->
      let aname = a.Parsetree.attr_name.Location.txt in
      if aname = "lint.never_raise" then never := true
      else if aname = "lint.allow" then
        match a.Parsetree.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Parsetree.Pstr_eval
                    ( { pexp_desc = Parsetree.Pexp_constant (Parsetree.Pconst_string (text, _, _)); _ },
                      _ );
                _;
              };
            ] -> (
          let text = String.trim text in
          match String.index_opt text ' ' with
          | None -> ()
          | Some i ->
            let rule = String.sub text 0 i in
            let just = String.trim (String.sub text i (String.length text - i)) in
            if List.mem rule Lint_core.known_rules && just <> "" then
              add_span g
                ~file:(file_of a.Parsetree.attr_loc)
                ~line:(line_of a.Parsetree.attr_loc)
                ~rule ~just ~lo:scope.loc_start.pos_lnum ~hi:scope.loc_end.pos_lnum)
        | _ -> ())
    attrs;
  !never

(* ------------------------------------------------------------------ *)
(* Pass 1: collect structure-level value bindings as graph nodes       *)
(* ------------------------------------------------------------------ *)

let loc_key (loc : Location.t) = (file_of loc, line_of loc, col_of loc)

(* tiny callees (accessors, one-expression wrappers) are inlined by
   ocamlopt even without flambda, which unboxes their float results —
   the measured exactly-0.0 gates prove it. A-float only fires for
   callees above this body-size estimate, where the call (and the
   boxed return) survives to the generated code. *)
let a1_inline_threshold = 16

let expr_size e =
  let n = ref 0 in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          incr n;
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !n

let collect_defs g (u : unit_info) =
  let anon = ref 0 in
  let rec str_items prefix items =
    List.iter
      (fun it ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let name =
                match vb.vb_pat.pat_desc with
                | Tpat_var (_, n) -> n.txt
                | Tpat_alias (_, _, n) -> n.txt
                | _ ->
                  incr anon;
                  Printf.sprintf "<init:%d>" !anon
              in
              let key = dotted (prefix @ [ name ]) in
              (* pattern-attached allows ([let f [@lint.allow ...] =])
                 scope over the whole binding, as in the textual pass *)
              ignore (scan_attrs g vb.vb_pat.pat_attributes ~scope:vb.vb_loc : bool);
              let never = scan_attrs g vb.vb_attributes ~scope:vb.vb_loc in
              let d =
                {
                  key;
                  d_file = u.u_file;
                  d_line = line_of vb.vb_loc;
                  d_size = expr_size vb.vb_expr;
                  never_raise = never;
                  sites = [];
                  accesses = [];
                  may_raise = false;
                  witness = None;
                }
              in
              (* first definition of a key wins; duplicates (shadowed
                 bindings) keep their own node under a stamped key so
                 sites are never attributed to the wrong body *)
              let key =
                if Hashtbl.mem g.defs key then begin
                  let k' = Printf.sprintf "%s'%d" key (line_of vb.vb_loc) in
                  k'
                end
                else key
              in
              let d = { d with key } in
              Hashtbl.replace g.defs key d;
              Hashtbl.replace g.by_loc (loc_key vb.vb_loc) d;
              (match vb.vb_pat.pat_desc with
               | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
                 Hashtbl.replace u.u_stamps (Ident.unique_name id) key
               | _ -> ()))
            vbs
        | Tstr_module mb -> module_binding prefix mb
        | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
        | Tstr_attribute a ->
          ignore
            (scan_attrs g [ a ]
               ~scope:
                 {
                   it.str_loc with
                   loc_start = { it.str_loc.loc_start with pos_lnum = 1 };
                   loc_end = { it.str_loc.loc_end with pos_lnum = max_int };
                 })
        | _ -> ())
      items
  and module_binding prefix mb =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec mexpr prefix me =
      match me.mod_desc with
      | Tmod_structure s -> str_items prefix s.str_items
      | Tmod_constraint (me, _, _, _) -> mexpr prefix me
      | Tmod_functor (_, me) -> mexpr prefix me
      | _ -> ()
    in
    mexpr (prefix @ [ name ]) mb.mb_expr
  in
  str_items [ u.u_name ] u.u_str.str_items

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

type resolved =
  | Rdef of string  (* a structure-level binding somewhere in the repo *)
  | Rexternal of string  (* normalized dotted name outside the repo *)
  | Rlocal  (* a local binding of the current function *)

(* drop leading components until the remainder names a def; defs keys
   start with their unit name, so the longest suffix match is the
   definition the typer resolved to *)
let resolve_suffix g comps =
  let rec go = function
    | [] -> None
    | l -> (
      match Hashtbl.find_opt g.defs (dotted l) with
      | Some d -> Some d.key
      | None -> go (List.tl l))
  in
  go comps

let resolve g (u : unit_info) path =
  match path with
  | Path.Pident id -> (
    match Hashtbl.find_opt u.u_stamps (Ident.unique_name id) with
    | Some key -> Rdef key
    | None -> Rlocal)
  | _ -> (
    let comps = flat_path path in
    match comps with
    | "Stdlib" :: rest -> Rexternal (dotted rest)
    | _ -> (
      let comps = normalize_components comps in
      (* same-unit submodule references arrive without the unit name *)
      match resolve_suffix g comps with
      | Some key -> Rdef key
      | None -> (
        match resolve_suffix g (u.u_name :: comps) with
        | Some key -> Rdef key
        | None -> Rexternal (dotted comps))))

let resolved_name = function Rdef k -> k | Rexternal n -> n | Rlocal -> ""

let suffix_matches ~pat name = name = pat || ends_with ~suffix:("." ^ pat) name

let last_two name =
  match List.rev (String.split_on_char '.' name) with
  | f :: m :: _ -> Some (m, f)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Type predicates                                                     *)
(* ------------------------------------------------------------------ *)

let rec is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_float
  | Types.Tpoly (t, _) -> is_float t
  | _ -> false

let rec is_option ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_option
  | Types.Tpoly (t, _) -> is_option t
  | _ -> false

(* an array, [bytes], or the [t] of a {!container_mods} module: the
   operand types a container op mutates (indices and stored values are
   neither) *)
let rec is_container ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
    Path.same p Predef.path_array
    || Path.same p Predef.path_bytes
    ||
    match List.rev (normalize_components (flat_path p)) with
    | "t" :: m :: _ -> List.mem m container_mods
    | _ -> false)
  | Types.Tpoly (t, _) -> is_container t
  | _ -> false

(* [e]'s type with its head abbreviations expanded, so a value typed
   [registry] where [type registry = (string, int) Hashtbl.t] is a
   container too. A cmt keeps only each environment's summary: the
   environment is rebuilt from it first (against the include dirs
   {!walk_unit} installs), and the type is taken as written when that
   fails. *)
let expanded_type (e : expression) =
  match Envaux.env_of_only_summary e.exp_env with
  | env -> ( try Ctype.expand_head env e.exp_type with _ -> e.exp_type)
  | exception _ -> e.exp_type

let is_tyvar ty =
  match Types.get_desc ty with Types.Tvar _ | Types.Tunivar _ -> true | _ -> false

let bigarray_suffixes = [ "Array1.t"; "Array2.t"; "Array3.t"; "Genarray.t" ]

let rec generic_bigarray ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
    let n = Path.name p in
    (List.exists (fun s -> ends_with ~suffix:s n) bigarray_suffixes
     && List.exists is_tyvar args)
    || List.exists generic_bigarray args
  | Types.Ttuple ts -> List.exists generic_bigarray ts
  | _ -> false

let rec arrow_params ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, b, _) -> a :: arrow_params b
  | Types.Tpoly (t, _) -> arrow_params t
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Pass 2: per-unit body walk                                          *)
(* ------------------------------------------------------------------ *)

type walk_state = {
  g : graph;
  u : unit_info;
  mutable cur : def option;  (* structure-level def whose body we are in *)
  mutable catch : int;  (* > 0 inside a local catch context *)
  mutable loops : int;  (* > 0 inside a for/while body *)
  mutable task : int;  (* > 0 inside an argument of a [p] root callsite *)
}

let in_a_file st = Lint_core.in_files st.u.u_file st.g.cfg.Config.a_files

let add_a st ~loc ~message ~hint =
  st.g.raw_a <-
    {
      Lint_core.file = st.u.u_file;
      line = line_of loc;
      col = col_of loc;
      rule = "A";
      message;
      hint;
    }
    :: st.g.raw_a

let record_site st s =
  (match st.cur with Some d -> d.sites <- s :: d.sites | None -> ());
  (* inside a task closure the callee is directly task-rooted *)
  if st.task > 0 then
    match s with
    | Edge { callee; _ } -> Hashtbl.replace st.g.roots callee ()
    | Raises _ -> ()

let record_access st ~loc what =
  let a = { a_file = st.u.u_file; a_line = line_of loc; a_col = col_of loc; a_what = what } in
  if st.task > 0 then st.g.task_accesses <- a :: st.g.task_accesses
  else match st.cur with Some d -> d.accesses <- a :: d.accesses | None -> ()

(* is [e] a reference to a structure-level (module-level) value? *)
let global_operand st e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match resolve st.g st.u p with
    | Rdef key -> Some key
    | Rexternal _ | Rlocal -> None)
  | _ -> None

let rec pat_bound_idents : type k. k general_pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (sub, id, _) -> id :: pat_bound_idents sub
  | Tpat_tuple ps -> List.concat_map pat_bound_idents ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_bound_idents ps
  | Tpat_variant (_, Some sub, _) -> pat_bound_idents sub
  | Tpat_record (fields, _) -> List.concat_map (fun (_, _, sub) -> pat_bound_idents sub) fields
  | Tpat_array ps -> List.concat_map pat_bound_idents ps
  | Tpat_lazy sub -> pat_bound_idents sub
  | Tpat_or (a, b, _) -> pat_bound_idents a @ pat_bound_idents b
  | Tpat_value v -> pat_bound_idents (v :> value general_pattern)
  | Tpat_exception sub -> pat_bound_idents sub
  | _ -> []

let rec comp_pat_has_exn : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_exception _ -> true
  | Tpat_or (a, b, _) -> comp_pat_has_exn a || comp_pat_has_exn b
  | _ -> false

(* free local idents of [e]: referenced stamps minus stamps bound
   within, minus structure-level bindings — a non-empty set means the
   closure captures and therefore allocates per evaluation *)
let captures_locals st e =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let free = ref false in
  let it =
    let open Tast_iterator in
    {
      default_iterator with
      pat =
        (fun (type k) it (p : k general_pattern) ->
          List.iter (fun id -> Hashtbl.replace bound (Ident.unique_name id) ()) (pat_bound_idents p);
          default_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.exp_desc with
           | Texp_ident (Path.Pident id, _, _) ->
             let un = Ident.unique_name id in
             if
               (not (Hashtbl.mem bound un))
               && not (Hashtbl.mem st.u.u_stamps un)
             then free := true
           | Texp_function { param; _ } ->
             Hashtbl.replace bound (Ident.unique_name param) ()
           | Texp_for (id, _, _, _, _, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
           | _ -> ());
          default_iterator.expr it e);
    }
  in
  (match e.exp_desc with
   | Texp_function { param; _ } -> Hashtbl.replace bound (Ident.unique_name param) ()
   | _ -> ());
  it.expr it e;
  !free

let walk_unit g (u : unit_info) =
  let st = { g; u; cur = None; catch = 0; loops = 0; task = 0 } in
  (* the cmis {!expanded_type} rebuilds environments from *)
  Load_path.init ~auto_include:Load_path.no_auto_include u.u_loadpath;
  Envaux.reset_cache ();
  let open Tast_iterator in
  let rec iterator =
    {
      default_iterator with
      value_binding =
        (fun it vb ->
          ignore (scan_attrs g vb.vb_attributes ~scope:vb.vb_loc : bool);
          ignore (scan_attrs g vb.vb_pat.pat_attributes ~scope:vb.vb_loc : bool);
          (* A3: a (possibly local) function whose bigarray parameter
             is still generic in kind/layout *)
          if in_a_file st then begin
            let params = arrow_params vb.vb_pat.pat_type in
            if params <> [] && List.exists generic_bigarray params then
              add_a st ~loc:vb.vb_loc
                ~message:
                  "bigarray parameter is polymorphic in kind or layout — every access \
                   compiles to the generic dispatch primitive"
                ~hint:
                  "annotate the parameter with the concrete bigarray type (the measured 8x \
                   of the codec monomorphization)"
          end;
          match Hashtbl.find_opt g.by_loc (loc_key vb.vb_loc) with
          | Some d ->
            let saved = st.cur in
            st.cur <- Some d;
            default_iterator.value_binding it vb;
            st.cur <- saved
          | None -> default_iterator.value_binding it vb);
      expr = (fun it e -> expr it e);
    }
  and expr it e =
    ignore (scan_attrs g e.exp_attributes ~scope:e.exp_loc : bool);
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      match resolve g u p with
      | Rdef key -> record_site st (Edge { callee = key; caught = st.catch > 0; loc = e.exp_loc })
      | Rlocal ->
        (* a locally-bound function handed to a task spawner: its body
           was attributed to the enclosing def, so root that def —
           conservative, and exactly right for [Shard.run]'s local
           [step] closure *)
        if st.task > 0 && arrow_params e.exp_type <> [] then (
          match st.cur with
          | Some d -> Hashtbl.replace g.roots d.key ()
          | None -> ())
      | Rexternal _ -> ())
    | Texp_apply (fn, args) -> apply it e fn args
    | Texp_try (body, cases) ->
      st.catch <- st.catch + 1;
      it.expr it body;
      st.catch <- st.catch - 1;
      List.iter (case it) cases
    | Texp_match (scrut, cases, partial) ->
      let catches = List.exists (fun c -> comp_pat_has_exn c.c_lhs) cases in
      if catches then begin
        st.catch <- st.catch + 1;
        it.expr it scrut;
        st.catch <- st.catch - 1
      end
      else it.expr it scrut;
      if partial = Partial then
        record_site st (Raises { what = "refutable match (Match_failure)"; caught = st.catch > 0; loc = e.exp_loc });
      List.iter (case it) cases
    | Texp_function { cases; partial; _ } ->
      if partial = Partial then
        record_site st
          (Raises { what = "refutable function cases (Match_failure)"; caught = st.catch > 0; loc = e.exp_loc });
      if in_a_file st && st.loops > 0 && st.task = 0 && captures_locals st e then
        add_a st ~loc:e.exp_loc
          ~message:"closure capturing locals inside a hot loop allocates on every iteration"
          ~hint:"hoist the closure out of the loop or pass the loop state as arguments";
      List.iter (case it) cases
    | Texp_for (_, _, lo, hi, _, body) ->
      it.expr it lo;
      it.expr it hi;
      st.loops <- st.loops + 1;
      it.expr it body;
      st.loops <- st.loops - 1
    | Texp_while (cond, body) ->
      it.expr it cond;
      st.loops <- st.loops + 1;
      it.expr it body;
      st.loops <- st.loops - 1
    | Texp_field (r, _, lbl) ->
      (if lbl.Types.lbl_mut = Asttypes.Mutable then
         match global_operand st r with
         | Some key ->
           record_access st ~loc:e.exp_loc
             (Printf.sprintf "read of mutable field %s.%s" key lbl.Types.lbl_name)
         | None -> ());
      default_iterator.expr it e
    | Texp_setfield (r, _, lbl, v) ->
      (match global_operand st r with
       | Some key ->
         record_access st ~loc:e.exp_loc
           (Printf.sprintf "write to mutable field %s.%s" key lbl.Types.lbl_name)
       | None -> ());
      it.expr it r;
      it.expr it v
    | Texp_construct (_, ctor, args) ->
      if in_a_file st && ctor.Types.cstr_name = "Some" && args <> [] then
        add_a st ~loc:e.exp_loc
          ~message:"Some construction boxes the value on the gated path"
          ~hint:
            "restructure so the steady state carries the value unboxed (exception arm, \
             sentinel, or a dedicated field)";
      default_iterator.expr it e
    | Texp_tuple _ ->
      if in_a_file st then
        add_a st ~loc:e.exp_loc
          ~message:"tuple construction allocates a block on the gated path"
          ~hint:"pass the components separately or pack them into an existing record/int";
      default_iterator.expr it e
    | Texp_assert _ ->
      (* assert false and failing asserts raise Assert_failure *)
      record_site st (Raises { what = "assert (Assert_failure)"; caught = st.catch > 0; loc = e.exp_loc });
      default_iterator.expr it e
    | _ -> default_iterator.expr it e
  and case : 'k. Tast_iterator.iterator -> 'k case -> unit =
   fun it c ->
    iterator.pat it c.c_lhs;
    (match c.c_guard with Some gexp -> it.expr it gexp | None -> ());
    it.expr it c.c_rhs
  and apply it e fn args =
    let fname =
      match fn.exp_desc with
      | Texp_ident (p, _, _) -> (
        match resolve g u p with
        | Rdef key ->
          record_site st (Edge { callee = key; caught = st.catch > 0; loc = fn.exp_loc });
          Some (Rdef key)
        | r -> Some r)
      | _ -> None
    in
    let name = match fname with Some r -> resolved_name r | None -> "" in
    (* E: raising primitives and known-raising externals *)
    (match fname with
     | Some (Rexternal n) ->
       if List.mem n raise_prims then
         record_site st (Raises { what = n; caught = st.catch > 0; loc = e.exp_loc })
       else if String.length n >= 5 && String.sub n 0 5 = "Unix." then
         record_site st
           (Raises { what = n ^ " (Unix_error)"; caught = st.catch > 0; loc = e.exp_loc })
       else (
         match last_two n with
         | Some (m, f) when List.mem (m, f) raising_lookups ->
           record_site st
             (Raises { what = n ^ " (raises on miss)"; caught = st.catch > 0; loc = e.exp_loc })
         | _ -> ())
     | _ -> ());
    (* P: deref/assign of a module-level ref *)
    (match fname with
     | Some (Rexternal op) when List.mem op deref_ops -> (
       match args with
       | (_, Some a0) :: _ -> (
         match global_operand st a0 with
         | Some key ->
           let verb = if op = "!" then "read" else "write" in
           record_access st ~loc:e.exp_loc
             (Printf.sprintf "%s of module-level ref %s via ( %s )" verb key op)
         | None -> ())
       | _ -> ())
     | _ -> ());
    (* P: container ops and array/bytes writes on module-level values *)
    (let container_hit =
       match last_two name with
       | Some (m, _) when List.mem m container_mods -> true
       | _ -> List.mem name array_writes
     in
     if container_hit then
       List.iter
         (fun (_, a) ->
           match a with
           | Some a -> (
             match global_operand st a with
             | Some key when is_container (expanded_type a) ->
               record_access st ~loc:e.exp_loc
                 (Printf.sprintf "%s on module-level container %s" name key)
             | Some _ | None -> ())
           | None -> ())
         args);
    (* A: intra-repo call whose float result boxes on return (tiny
       callees are inlined and unboxed; see a1_inline_threshold) *)
    (match fname with
     | Some (Rdef callee) when in_a_file st && is_float e.exp_type -> (
       match Hashtbl.find_opt g.defs callee with
       | Some c when c.d_size > a1_inline_threshold ->
         add_a st ~loc:e.exp_loc
           ~message:
             (Printf.sprintf "float result of %s crosses a function boundary (boxed return)"
                callee)
           ~hint:"open-code the computation or return the float through a preallocated cell"
       | _ -> ())
     | _ -> ());
    (* A: option-boxing lookups *)
    (if in_a_file st && is_option e.exp_type then
       match last_two name with
       | Some (_, f) when List.mem f opt_lookups ->
         add_a st ~loc:e.exp_loc
           ~message:(Printf.sprintf "%s allocates a Some box on every hit" name)
           ~hint:"use find with an [exception Not_found ->] arm on the gated path"
       | _ -> ());
    (* P roots: arguments of a task spawner are task closures *)
    let rooted =
      List.exists (fun pat -> suffix_matches ~pat name) g.cfg.Config.p_roots && name <> ""
    in
    if rooted then begin
      st.task <- st.task + 1;
      List.iter (fun (_, a) -> match a with Some a -> it.expr it a | None -> ()) args;
      st.task <- st.task - 1
    end
    else List.iter (fun (_, a) -> match a with Some a -> it.expr it a | None -> ()) args;
    match fn.exp_desc with
    | Texp_ident _ -> ()  (* already recorded *)
    | _ -> it.expr it fn
  in
  iterator.structure iterator u.u_str

(* ------------------------------------------------------------------ *)
(* Fixpoints                                                           *)
(* ------------------------------------------------------------------ *)

let covering_span g ~rule ~file ~line =
  List.exists
    (fun (s : suppression) ->
      s.Lint_core.s_rule = rule && s.s_file = file && line >= s.s_lo && line <= s.s_hi)
    g.spans

(* mark E sites under an audited span as caught (both direct raises and
   calls into raising defs); marking rather than dropping keeps the
   edges visible to the P reachability walk. Returns the audit trail. *)
let prune_suppressed_sites g =
  let dropped = ref [] in
  let note what loc =
    dropped :=
      {
        Lint_core.file = file_of loc;
        line = line_of loc;
        col = col_of loc;
        rule = "E";
        message = "audited raising site: " ^ what;
        hint = "covered by [@lint.allow \"E ...\"]";
      }
      :: !dropped
  in
  Hashtbl.iter
    (fun _ d ->
      d.sites <-
        List.map
          (fun s ->
            match s with
            | Raises { what; caught = false; loc }
              when covering_span g ~rule:"E" ~file:(file_of loc) ~line:(line_of loc) ->
              note what loc;
              Raises { what; caught = true; loc }
            | Edge { callee; caught = false; loc }
              when covering_span g ~rule:"E" ~file:(file_of loc) ~line:(line_of loc) ->
              note ("call to " ^ callee) loc;
              Edge { callee; caught = true; loc }
            | s -> s)
          d.sites)
    g.defs;
  !dropped

let compute_may_raise g =
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ d ->
        if not d.may_raise then begin
          let hit =
            List.find_opt
              (fun s ->
                match s with
                | Raises { caught = false; _ } -> true
                | Edge { callee; caught = false; _ } -> (
                  match Hashtbl.find_opt g.defs callee with
                  | Some c -> c.may_raise
                  | None -> false)
                | _ -> false)
              (List.rev d.sites)
          in
          match hit with
          | Some s ->
            d.may_raise <- true;
            d.witness <- Some s;
            changed := true
          | None -> ()
        end)
      g.defs
  done

let compute_reachable g =
  let reach : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  Hashtbl.iter (fun k () -> Queue.add k queue) g.roots;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    if not (Hashtbl.mem reach k) then begin
      Hashtbl.replace reach k ();
      match Hashtbl.find_opt g.defs k with
      | Some d ->
        List.iter
          (fun s -> match s with Edge { callee; _ } -> Queue.add callee queue | Raises _ -> ())
          d.sites
      | None -> ()
    end
  done;
  reach

let rec witness_chain g d depth acc =
  if depth > 8 then List.rev ("..." :: acc)
  else
    match d.witness with
    | None -> List.rev acc
    | Some (Raises { what; loc; _ }) ->
      List.rev (Printf.sprintf "%s at %s:%d" what (file_of loc) (line_of loc) :: acc)
    | Some (Edge { callee; _ }) -> (
      match Hashtbl.find_opt g.defs callee with
      | Some c -> witness_chain g c (depth + 1) (callee :: acc)
      | None -> List.rev acc)

(* ------------------------------------------------------------------ *)
(* cmt discovery and loading                                           *)
(* ------------------------------------------------------------------ *)

let rec walk_dir root rel acc =
  let abs = if rel = "" then root else Filename.concat root rel in
  if not (Sys.file_exists abs) then acc
  else if Sys.is_directory abs then begin
    let entries = Sys.readdir abs in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        let child = if rel = "" then name else rel ^ "/" ^ name in
        walk_dir root child acc)
      acc entries
  end
  else if Filename.check_suffix rel ".cmt" then rel :: acc
  else acc

(* One cmt per module. When -bin-annot also reaches ocamlopt, a module
   has two: .objs/byte/m.cmt and .objs/native/m.cmt, with the same
   Typedtree. Loading both would double every def and edge, so the
   first per (objs dir, file name) is kept — the byte one, which the
   sorted walk yields first. *)
let one_per_module paths =
  let seen = Hashtbl.create 128 in
  List.filter
    (fun p ->
      let key = Filename.concat (Filename.dirname (Filename.dirname p)) (Filename.basename p) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    paths

(* Discovery order (documented in tools/lint/README): for each [typed]
   dir D in lint.toml order, first D itself (fresh when running inside
   the dune build context, whose cwd is _build/default), then
   _build/default/D (running from the workspace root). The first
   prefix that yields any .cmt wins for that dir; within a dir the
   walk is sorted so reports are stable. *)
let discover_cmts ?(root = ".") (cfg : Config.t) =
  List.concat_map
    (fun dir ->
      let direct = List.rev (walk_dir root dir []) in
      let found =
        if direct <> [] then direct
        else List.rev (walk_dir root (Filename.concat "_build/default" dir) [])
      in
      List.map (fun f -> Filename.concat root f) (one_per_module found))
    cfg.Config.typed_dirs

(* the include dirs a unit was compiled with, usable from here. Dune
   records them under its build root, which it may rewrite in
   [cmt_builddir] (to /workspace_root); the unit's own object dir is
   one of them and ends the cmt's directory, which gives the real
   root. *)
let include_dirs path (info : Cmt_format.cmt_infos) =
  let build = info.Cmt_format.cmt_builddir in
  let under_build d =
    if Filename.is_relative d then Some d
    else if String.starts_with ~prefix:(build ^ "/") d then
      Some (String.sub d (String.length build + 1) (String.length d - String.length build - 1))
    else None
  in
  let dir = Filename.dirname path in
  let root =
    List.find_map
      (fun d ->
        match under_build d with
        | Some r when r <> "" && (dir = r || ends_with ~suffix:("/" ^ r) dir) ->
          Some (String.sub dir 0 (String.length dir - String.length r))
        | Some _ | None -> None)
      info.Cmt_format.cmt_loadpath
  in
  let root = Option.value root ~default:build in
  List.map
    (fun d -> match under_build d with Some r -> Filename.concat root r | None -> d)
    info.Cmt_format.cmt_loadpath

let load_unit g path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | info -> (
    match info.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      let raw = info.Cmt_format.cmt_modname in
      let name =
        let n = strip_wrapper raw in
        if n = "" then raw else n
      in
      let file =
        match info.Cmt_format.cmt_sourcefile with
        | Some f ->
          if String.starts_with ~prefix:"./" f then String.sub f 2 (String.length f - 2)
          else f
        | None -> raw
      in
      if Lint_core.in_dirs file g.cfg.Config.exclude then None
      else
        Some
          {
            u_name = name;
            u_file = file;
            u_str = str;
            u_stamps = Hashtbl.create 64;
            u_loadpath = include_dirs path info;
          }
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let compare_findings = Lint_core.compare_findings

let analyze ?(root = ".") (cfg : Config.t) ~cmts =
  ignore root;
  let g =
    {
      cfg;
      defs = Hashtbl.create 512;
      by_loc = Hashtbl.create 512;
      roots = Hashtbl.create 64;
      task_accesses = [];
      spans = [];
      raw_a = [];
    }
  in
  let units = List.filter_map (load_unit g) cmts in
  List.iter (fun u -> collect_defs g u) units;
  List.iter (fun u -> walk_unit g u) units;
  let suppressed_sites = prune_suppressed_sites g in
  compute_may_raise g;
  let reach = compute_reachable g in
  (* E findings: annotated defs that may raise *)
  let e_findings = ref [] in
  let annotated = ref 0 in
  Hashtbl.iter
    (fun _ d ->
      if d.never_raise then begin
        incr annotated;
        if d.may_raise then
          e_findings :=
            {
              Lint_core.file = d.d_file;
              line = d.d_line;
              col = 0;
              rule = "E";
              message =
                Printf.sprintf "[@lint.never_raise] %s can raise: %s" d.key
                  (String.concat " -> " (witness_chain g d 0 [ d.key ]));
              hint =
                "catch locally (try / match-with-exception arm), restructure, or audit the \
                 site with [@lint.allow \"E ...\"]";
            }
            :: !e_findings
      end)
    g.defs;
  (* P findings: module-state accesses in task-reachable defs *)
  let p_raw = ref [] in
  let add_p (a : access) ctx =
    if Lint_core.in_dirs a.a_file cfg.Config.p_dirs || cfg.Config.p_dirs = [ "" ] then
      p_raw :=
        {
          Lint_core.file = a.a_file;
          line = a.a_line;
          col = a.a_col;
          rule = "P";
          message = Printf.sprintf "%s%s" a.a_what ctx;
          hint =
            "make it Atomic.t, index it per worker domain, or audit the invariant with \
             [@lint.allow \"P ...\"]";
        }
        :: !p_raw
  in
  List.iter (fun a -> add_p a " inside a parallel task closure") g.task_accesses;
  Hashtbl.iter
    (fun key d ->
      if Hashtbl.mem reach key then
        List.iter (fun a -> add_p a (Printf.sprintf " on a task-reachable path (%s)" key)) d.accesses)
    g.defs;
  (* suppression spans apply uniformly over P/E/A findings *)
  let split rule raw =
    List.partition
      (fun (f : finding) -> not (covering_span g ~rule ~file:f.Lint_core.file ~line:f.line))
      raw
  in
  let p_keep, p_drop = split "P" !p_raw in
  let e_keep, e_drop = split "E" !e_findings in
  let a_keep, a_drop = split "A" g.raw_a in
  let dedupe fs =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun (f : finding) ->
        let k = (f.Lint_core.file, f.line, f.col, f.rule, f.message) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      fs
  in
  let edges =
    Hashtbl.fold
      (fun key d acc ->
        List.fold_left
          (fun acc s -> match s with Edge { callee; _ } -> (key, callee) :: acc | Raises _ -> acc)
          acc d.sites)
      g.defs []
    |> List.sort_uniq compare
  in
  {
    findings = List.sort compare_findings (dedupe (p_keep @ e_keep @ a_keep));
    suppressed =
      List.sort compare_findings (dedupe (p_drop @ e_drop @ a_drop @ suppressed_sites));
    suppressions =
      (* pass 1 (def collection) and pass 2 (body walk) both see
         top-level binding attributes; keep one copy *)
      (let seen = Hashtbl.create 64 in
       List.filter
         (fun (s : suppression) ->
           let k = (s.Lint_core.s_file, s.s_line, s.s_rule) in
           if Hashtbl.mem seen k then false
           else begin
             Hashtbl.replace seen k ();
             true
           end)
         g.spans)
      |> List.sort (fun (a : suppression) b ->
             let c = String.compare a.Lint_core.s_file b.Lint_core.s_file in
             if c <> 0 then c else Int.compare a.s_line b.s_line);
    graph_edges = edges;
    stats =
      {
        units = List.length units;
        defs = Hashtbl.length g.defs;
        edges = List.length edges;
        task_roots = Hashtbl.length g.roots;
        task_reachable = Hashtbl.length reach;
        never_raise_defs = !annotated;
      };
  }

(* rrmp_lint — two-layer project lint over the repo's OCaml sources.

   Layer 1 (Lint_core) parses every source file and checks the textual
   rules (D1-D4, H1, H2, M1, S1). Layer 2 (Lint_typed) loads the
   compiler's .cmt output, builds the intra-repo call graph, and checks
   the typed rules (P, E, A). Both layers share the
   [@lint.allow "RULE why"] suppression grammar and land in one report.

   Usage:
     rrmp_lint [--root DIR] [--config FILE] [--json FILE] [--sarif FILE]
               [--no-typed] [--quiet]

   Exit status: 0 when the tree is clean, 1 on unsuppressed findings,
   2 on usage or configuration errors (including: typed pass requested
   but no .cmt input found). *)

let usage =
  "rrmp_lint [--root DIR] [--config FILE] [--json FILE] [--sarif FILE] [--no-typed] [--quiet]"

let json_v2 ~(textual : Lint_core.report) ~(typed : Lint_typed.result option) =
  let esc = Lint_core.json_escape in
  let findings =
    textual.Lint_core.findings @ match typed with Some t -> t.Lint_typed.findings | None -> []
  in
  let suppressed =
    textual.Lint_core.suppressed @ match typed with Some t -> t.Lint_typed.suppressed | None -> []
  in
  let suppressions =
    textual.Lint_core.suppressions
    @ (match typed with Some t -> t.Lint_typed.suppressions | None -> [])
    |> List.sort_uniq (fun (a : Lint_core.suppression) b ->
           compare (a.Lint_core.s_file, a.s_line, a.s_rule) (b.Lint_core.s_file, b.s_line, b.s_rule))
  in
  let finding (f : Lint_core.finding) =
    Printf.sprintf
      "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\",\"hint\":\"%s\"}"
      (esc f.Lint_core.file) f.line f.col f.rule (esc f.message) (esc f.hint)
  in
  let suppression (s : Lint_core.suppression) =
    Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"justification\":\"%s\"}"
      (esc s.Lint_core.s_file) s.s_line s.s_rule (esc s.s_just)
  in
  let count rule = List.length (List.filter (fun (f : Lint_core.finding) -> f.rule = rule) findings) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"version\": \"lint-report/v2\",\n";
  Printf.bprintf buf "  \"files_scanned\": %d,\n" textual.files_scanned;
  Printf.bprintf buf "  \"rules\": [%s],\n"
    (String.concat ", " (List.map (fun r -> "\"" ^ r ^ "\"") Lint_core.known_rules));
  Printf.bprintf buf "  \"counts\": {%s},\n"
    (String.concat ", "
       (List.map (fun r -> Printf.sprintf "\"%s\": %d" r (count r)) Lint_core.known_rules));
  (match typed with
   | Some t ->
     let s = t.Lint_typed.stats in
     Printf.bprintf buf
       "  \"typed\": {\"cmt_units\": %d, \"defs\": %d, \"call_graph_edges\": %d, \
        \"task_roots\": %d, \"task_reachable\": %d, \"never_raise_defs\": %d},\n"
       s.Lint_typed.units s.defs s.edges s.task_roots s.task_reachable s.never_raise_defs
   | None -> Buffer.add_string buf "  \"typed\": null,\n");
  Printf.bprintf buf "  \"findings\": [%s],\n"
    (String.concat ",\n    " (List.map finding findings));
  Printf.bprintf buf "  \"suppressed\": [%s],\n"
    (String.concat ",\n    " (List.map finding suppressed));
  Printf.bprintf buf "  \"suppressions\": [%s]\n"
    (String.concat ",\n    " (List.map suppression suppressions));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let () =
  let t0 = Unix.gettimeofday () in
  let root = ref "." in
  let config = ref "lint.toml" in
  let json_out = ref None in
  let sarif_out = ref None in
  let no_typed = ref false in
  let quiet = ref false in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR scan relative to DIR (default .)");
      ("--config", Arg.Set_string config, "FILE lint configuration (default lint.toml)");
      ("--json", Arg.String (fun f -> json_out := Some f), "FILE write a lint-report/v2 JSON report");
      ("--sarif", Arg.String (fun f -> sarif_out := Some f), "FILE write a SARIF 2.1.0 report");
      ("--no-typed", Arg.Set no_typed, " skip the typed (cmt) pass");
      ("--quiet", Arg.Set quiet, " suppress per-finding output");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let cfg =
    try Lint_core.Config.load (Filename.concat !root !config) with
    | Lint_core.Config.Bad_config msg ->
      Printf.eprintf "rrmp_lint: %s: %s\n" !config msg;
      exit 2
  in
  let textual = Lint_core.scan_tree ~root:!root cfg in
  let typed =
    if !no_typed then None
    else begin
      let cmts = Lint_typed.discover_cmts ~root:!root cfg in
      if cmts = [] then begin
        Printf.eprintf
          "rrmp_lint: no .cmt input under %s (build first, or pass --no-typed)\n"
          (String.concat ", " cfg.Lint_core.Config.typed_dirs);
        exit 2
      end;
      Some (Lint_typed.analyze cfg ~cmts)
    end
  in
  let findings =
    List.sort Lint_core.compare_findings
      (textual.Lint_core.findings
       @ match typed with Some t -> t.Lint_typed.findings | None -> [])
  in
  (* stdout only: the promoted report must be byte-identical across
     identical runs, and wall time is not *)
  let wall_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
  (match !json_out with
   | None -> ()
   | Some f ->
     let oc = open_out f in
     output_string oc (json_v2 ~textual ~typed);
     close_out oc);
  (match !sarif_out with
   | None -> ()
   | Some f ->
     Lint_sarif.write ~path:f ~findings
       ~suppressed:
         (textual.Lint_core.suppressed
          @ match typed with Some t -> t.Lint_typed.suppressed | None -> []));
  if not !quiet then List.iter (Lint_core.pp_finding stdout) findings;
  let n = List.length findings in
  let n_suppr =
    List.length textual.Lint_core.suppressions
    + match typed with Some t -> List.length t.Lint_typed.suppressions | None -> 0
  in
  (match typed with
   | Some t ->
     let s = t.Lint_typed.stats in
     Printf.printf
       "rrmp_lint: %d file(s) scanned, %d cmt unit(s), %d def(s), %d call-graph edge(s), %d \
        finding(s), %d audited suppression(s), %d ms\n"
       textual.files_scanned s.Lint_typed.units s.defs s.edges n n_suppr wall_ms
   | None ->
     Printf.printf
       "rrmp_lint: %d file(s) scanned (typed pass skipped), %d finding(s), %d audited \
        suppression(s), %d ms\n"
       textual.files_scanned n n_suppr wall_ms);
  if n > 0 then exit 1

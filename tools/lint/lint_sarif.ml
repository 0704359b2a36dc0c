(* Minimal SARIF 2.1.0 emitter for CI upload. One run, one driver
   (rrmp_lint), one rule object per rule id that actually fired, one
   result per finding. Suppressed findings are emitted with a
   [suppressions] entry so the audit trail survives into CI. *)

type finding = Lint_core.finding

let esc = Lint_core.json_escape

let rule_help = function
  | "D1" -> "banned ambient nondeterminism source"
  | "D2" -> "unordered container iteration escapes unsorted"
  | "D3" -> "polymorphic structure on protocol types"
  | "D4" -> "hidden environment input"
  | "H1" -> "allocation hazard in a hot module"
  | "M1" -> "missing .mli interface"
  | "S1" -> "malformed lint suppression"
  | "P" -> "module-level mutable state on a parallel-task path"
  | "E" -> "[@lint.never_raise] function can raise"
  | "A" -> "typed allocation on an exact-zero module"
  | r -> r

let result_json ~suppressed (f : finding) =
  let suppression =
    if suppressed then
      ",\"suppressions\":[{\"kind\":\"inSource\",\"justification\":\"see LINT_report.json\"}]"
    else ""
  in
  Printf.sprintf
    "{\"ruleId\":\"%s\",\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]%s}"
    (esc f.Lint_core.rule)
    (if suppressed then "note" else "error")
    (esc (f.message ^ " — " ^ f.hint))
    (esc f.file) f.line (max 1 (f.col + 1)) suppression

let to_string ~findings ~suppressed =
  let fired = Hashtbl.create 8 in
  List.iter (fun (f : finding) -> Hashtbl.replace fired f.Lint_core.rule ()) (findings @ suppressed);
  let rules =
    Lint_core.known_rules
    |> List.filter (Hashtbl.mem fired)
    |> List.map (fun r ->
           Printf.sprintf
             "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"}}" (esc r)
             (esc (rule_help r)))
  in
  let results =
    List.map (result_json ~suppressed:false) findings
    @ List.map (result_json ~suppressed:true) suppressed
  in
  String.concat ""
    [
      "{\"version\":\"2.1.0\",";
      "\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",";
      "\"runs\":[{\"tool\":{\"driver\":{\"name\":\"rrmp_lint\",\"rules\":[";
      String.concat "," rules;
      "]}},\"results\":[";
      String.concat "," results;
      "]}]}\n";
    ]

let write ~path ~findings ~suppressed =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ~findings ~suppressed))

(* Tests for rrmp_lint (tools/lint): each rule proven to fire on a
   fixture file with the right rule id and line, suppression and
   sorted-context clearing proven to work, and the real lib/ tree
   proven clean against the committed lint.toml. *)

module Lint = Lint_core
module Config = Lint_core.Config

(* `dune runtest` runs this from _build/default/test (the fixtures
   directory is a dep of the test stanza); `dune exec` runs it from the
   workspace root — resolve both *)
let fixture_root = if Sys.file_exists "lint_fixtures" then "." else "test"

let repo_root = if Sys.file_exists "lint.toml" then "." else ".."

let fcfg =
  {
    Config.roots = [ "lint_fixtures" ];
    exclude = [];
    d1_dirs = [ "lint_fixtures" ];
    d1_allow = [];
    d2_dirs = [ "lint_fixtures" ];
    d3_dirs = [ "lint_fixtures" ];
    d3_id_idents = [ "id" ];
    d4_dirs = [ "lint_fixtures" ];
    d4_allow = [];
    h1_files = [ "lint_fixtures/h1_alloc.ml" ];
    h2_files = [ "lint_fixtures/h2_box.ml" ];
    m1_dirs = [ "lint_fixtures/m1" ];
    m1_exempt = [];
    typed_dirs = [];
    p_roots = [];
    p_dirs = [];
    a_files = [];
  }

(* typed-pass configuration: the cmt fixtures under lint_fixtures/typed
   are compiled by ocamlc rules (see the dune file there), with a local
   [Pool.parallel_for] standing in for the engine's task spawner *)
let tcfg =
  {
    fcfg with
    Config.typed_dirs = [ "lint_fixtures/typed" ];
    p_roots = [ "Pool.parallel_for" ];
    p_dirs = [ "" ];
    a_files = [ "fx_alloc.ml" ];
  }

let typed_result =
  lazy
    (let cmts = Lint_typed.discover_cmts ~root:fixture_root tcfg in
     Lint_typed.analyze tcfg ~cmts)

let typed_hits rule =
  let r = Lazy.force typed_result in
  List.filter_map
    (fun (f : Lint.finding) -> if f.rule = rule then Some (f.file, f.line, f.col) else None)
    r.Lint_typed.findings

let hits file =
  let findings, _, _ = Lint.scan_file ~root:fixture_root fcfg file in
  List.map (fun (f : Lint.finding) -> (f.rule, f.line)) findings

let check_hits name file expected =
  Alcotest.(check (list (pair string int))) name expected (hits file)

let test_d1 () =
  check_hits "ambient PRNG, clock, poly hash" "lint_fixtures/d1_clock.ml"
    [ ("D1", 2); ("D1", 4); ("D1", 6) ]

let test_d2 () =
  (* only the escaping fold fires: both sorted forms are auto-cleared *)
  check_hits "escaping fold only" "lint_fixtures/d2_escape.ml" [ ("D2", 3) ]

let test_d3 () =
  check_hits "poly = / compare / Hashtbl / id ident" "lint_fixtures/d3_poly.ml"
    [ ("D3", 2); ("D3", 4); ("D3", 6); ("D3", 8) ]

let test_d4 () = check_hits "env read" "lint_fixtures/d4_env.ml" [ ("D4", 2) ]

let test_h1 () =
  check_hits "append and sprintf in hot module" "lint_fixtures/h1_alloc.ml"
    [ ("H1", 2); ("H1", 4) ]

let test_h1_only_when_hot () =
  (* the same file scanned without the hot marker is clean *)
  let cold = { fcfg with Config.h1_files = [] } in
  let findings, _, _ = Lint.scan_file ~root:fixture_root cold "lint_fixtures/h1_alloc.ml" in
  Alcotest.(check int) "not hot, not flagged" 0 (List.length findings)

let test_h2 () =
  check_hits "find_opt, closure argument, Some, tuple" "lint_fixtures/h2_box.ml"
    [ ("H2", 2); ("H2", 4); ("H2", 6); ("H2", 8) ]

let test_h2_ctor_args_exempt () =
  (* Pair (x, y) on line 14 is the constructor's own block, not a
     tuple allocation: no finding past line 8 *)
  Alcotest.(check bool) "no finding on the constructor application" true
    (List.for_all (fun (_, line) -> line <= 8) (hits "lint_fixtures/h2_box.ml"))

let test_h2_only_when_listed () =
  let cold = { fcfg with Config.h2_files = [] } in
  let findings, _, _ = Lint.scan_file ~root:fixture_root cold "lint_fixtures/h2_box.ml" in
  Alcotest.(check int) "not listed, not flagged" 0 (List.length findings)

let test_s1 () =
  check_hits "unknown rule id and missing justification" "lint_fixtures/s1_bad.ml"
    [ ("S1", 3); ("S1", 5) ]

let test_h1_scope () =
  (* suppression scoping is uniform: the allow clears the finding from
     the enclosing let (both the binding and the pattern attachment the
     parser produces) and from the expression; only the unaudited
     binding leaks *)
  let cfg = { fcfg with Config.h1_files = [ "lint_fixtures/h1_scope.ml" ] } in
  let findings, suppressed, _ =
    Lint.scan_file ~root:fixture_root cfg "lint_fixtures/h1_scope.ml"
  in
  Alcotest.(check (list (pair string int)))
    "only the unaudited append fires"
    [ ("H1", 18) ]
    (List.map (fun (f : Lint.finding) -> (f.rule, f.line)) findings);
  Alcotest.(check int) "all three placements audited" 3 (List.length suppressed)

let test_suppression () =
  let findings, suppressed, spans =
    Lint.scan_file ~root:fixture_root fcfg "lint_fixtures/suppress_ok.ml"
  in
  Alcotest.(check int) "no unsuppressed findings" 0 (List.length findings);
  Alcotest.(check (list (pair string int)))
    "the D1 draw was cleared, not missed"
    [ ("D1", 3) ]
    (List.map (fun (f : Lint.finding) -> (f.rule, f.line)) suppressed);
  match spans with
  | [ s ] ->
    Alcotest.(check string) "audited rule" "D1" s.Lint.s_rule;
    Alcotest.(check string) "audited justification" "fixture: deliberately audited draw"
      s.Lint.s_just
  | l -> Alcotest.failf "expected one audited suppression, got %d" (List.length l)

let test_clean_fixture () =
  check_hits "violation-free module" "lint_fixtures/clean.ml" []

let test_m1 () =
  let report = Lint.scan_tree ~root:fixture_root fcfg in
  let m1 =
    List.filter_map
      (fun (f : Lint.finding) -> if f.rule = "M1" then Some f.file else None)
      report.Lint.findings
  in
  Alcotest.(check (list string)) "only the orphan is flagged"
    [ "lint_fixtures/m1/orphan.ml" ] m1

let test_config_load () =
  let cfg = Config.load (Filename.concat repo_root "lint.toml") in
  Alcotest.(check (list string)) "roots" [ "lib"; "bin"; "bench"; "test" ] cfg.Config.roots;
  Alcotest.(check bool) "fixtures excluded" true
    (List.mem "test/lint_fixtures" cfg.Config.exclude);
  Alcotest.(check bool) "member.ml declared hot" true
    (List.mem "lib/rrmp/member.ml" cfg.Config.h1_files);
  Alcotest.(check bool) "wire.ml declared hot" true
    (List.mem "lib/rrmp/wire.ml" cfg.Config.h1_files);
  Alcotest.(check (list string)) "textual H2 superseded by typed A" [] cfg.Config.h2_files;
  Alcotest.(check (list string)) "typed pass reads the lib cmts" [ "lib" ] cfg.Config.typed_dirs;
  Alcotest.(check bool) "pool spawns are task roots" true
    (List.mem "Pool.parallel_for" cfg.Config.p_roots);
  Alcotest.(check bool) "member_soa.ml behind the exact-zero gate" true
    (List.mem "lib/rrmp/member_soa.ml" cfg.Config.a_files)

let test_clean_tree () =
  (* the committed config over the real lib/ tree: zero unsuppressed
     findings, and every audited suppression carries a justification *)
  let cfg =
    { (Config.load (Filename.concat repo_root "lint.toml")) with Config.roots = [ "lib" ] }
  in
  let report = Lint.scan_tree ~root:repo_root cfg in
  List.iter (fun (f : Lint.finding) -> Format.eprintf "unexpected: %s:%d [%s] %s@." f.file f.line f.rule f.message)
    report.Lint.findings;
  Alcotest.(check int) "lib/ is lint-clean" 0 (List.length report.Lint.findings);
  Alcotest.(check bool) "suppressions are audited" true
    (report.Lint.suppressions <> []
     && List.for_all (fun s -> String.length s.Lint.s_just > 0) report.Lint.suppressions)

(* --------------------------------------------------------------- *)
(* Typed (cmt) pass                                                  *)
(* --------------------------------------------------------------- *)

let triple = Alcotest.(list (triple string int int))

let test_p_cases () =
  Alcotest.check triple "module state on task paths"
    [
      (* reachable via the rooted call chain (run -> bump) *)
      ("fx_glob.ml", 18, 14);
      (* directly inside the parallel task closure *)
      ("fx_glob.ml", 23, 6);
      ("fx_glob.ml", 23, 14);
      (* module-scope hashtable mutation in the closure *)
      ("fx_glob.ml", 24, 6);
      (* a module-level array whose type is an alias *)
      ("fx_glob.ml", 48, 47);
    ]
    (typed_hits "P")

let test_e_cases () =
  Alcotest.check triple "never_raise violations"
    [
      (* cross-unit: bad -> Fx_cg_leaf.risky -> failwith *)
      ("fx_cg_main.ml", 5, 0);
      (* transitive Hashtbl.find through lookup *)
      ("fx_raise.ml", 13, 0);
      (* refutable function cases (Match_failure) *)
      ("fx_raise.ml", 17, 0);
    ]
    (typed_hits "E")

let test_e_witness () =
  let r = Lazy.force typed_result in
  let bad =
    List.find
      (fun (f : Lint.finding) -> f.rule = "E" && f.file = "fx_raise.ml" && f.line = 13)
      r.Lint_typed.findings
  in
  Alcotest.(check bool) "witness chain names the raising callee" true
    (let msg = bad.Lint.message in
     let contains s =
       let n = String.length s and m = String.length msg in
       let rec go i = i + n <= m && (String.sub msg i n = s || go (i + 1)) in
       go 0
     in
     contains "Fx_raise.lookup" && contains "Hashtbl.find")

let test_a_cases () =
  Alcotest.check triple "typed allocation on the gated module"
    [
      ("fx_alloc.ml", 16, 10);  (* boxed float return crossing use_mean *)
      ("fx_alloc.ml", 22, 12);  (* capturing closure inside the loop *)
      ("fx_alloc.ml", 27, 0);   (* kind/layout-generic bigarray param *)
      ("fx_alloc.ml", 34, 14);  (* Some construction *)
      ("fx_alloc.ml", 36, 15);  (* tuple construction *)
      ("fx_alloc.ml", 38, 17);  (* option-boxing lookup *)
    ]
    (typed_hits "A")

let test_typed_suppressed () =
  let r = Lazy.force typed_result in
  Alcotest.(check (list (triple string string int)))
    "each family carries an audited fixture case"
    [ ("A", "fx_alloc.ml", 40); ("P", "fx_glob.ml", 29); ("E", "fx_raise.ml", 20) ]
    (List.map
       (fun (f : Lint.finding) -> (f.rule, f.file, f.line))
       r.Lint_typed.suppressed);
  Alcotest.(check bool) "every suppression is justified" true
    (r.Lint_typed.suppressions <> []
     && List.for_all
          (fun (s : Lint.suppression) -> String.length s.Lint.s_just > 0)
          r.Lint_typed.suppressions)

let test_call_graph () =
  let r = Lazy.force typed_result in
  let edges = r.Lint_typed.graph_edges in
  Alcotest.(check bool) "cross-unit edge resolved" true
    (List.mem ("Fx_cg_main.use", "Fx_cg_leaf.helper") edges);
  Alcotest.(check bool) "raising edge resolved" true
    (List.mem ("Fx_cg_main.bad", "Fx_cg_leaf.risky") edges);
  Alcotest.(check bool) "same-unit edge resolved" true
    (List.mem ("Fx_glob.run", "Fx_glob.bump") edges
     || List.mem ("Fx_raise.bad", "Fx_raise.lookup") edges);
  let s = r.Lint_typed.stats in
  Alcotest.(check int) "all five fixture units load" 5 s.Lint_typed.units;
  Alcotest.(check bool) "task roots found and walked" true
    (s.Lint_typed.task_roots >= 1 && s.Lint_typed.task_reachable >= s.Lint_typed.task_roots);
  Alcotest.(check bool) "never_raise annotations registered" true
    (s.Lint_typed.never_raise_defs >= 5)

let test_sarif_smoke () =
  let r = Lazy.force typed_result in
  let s =
    Lint_sarif.to_string ~findings:r.Lint_typed.findings ~suppressed:r.Lint_typed.suppressed
  in
  let count sub =
    let n = String.length sub and m = String.length s in
    let rec go i acc =
      if i + n > m then acc
      else if String.sub s i n = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "declares SARIF 2.1.0" 1 (count "\"version\":\"2.1.0\"");
  Alcotest.(check int) "one result per finding" 17 (count "\"ruleId\"");
  Alcotest.(check int) "suppressed results carry the audit marker" 3
    (count "\"suppressions\":[{\"kind\":\"inSource\"");
  Alcotest.(check int) "every fired family has a rule object" 3 (count "\"shortDescription\"");
  (* structural smoke: braces and brackets balance, no raw newline
     inside the emitted JSON body *)
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      (match c with
       | '{' | '[' -> incr depth
       | '}' | ']' -> decr depth
       | _ -> ());
      if !depth < 0 then ok := false)
    s;
  Alcotest.(check bool) "braces balance" true (!ok && !depth = 0)

(* a module compiled both ways leaves .objs/byte/m.cmt and
   .objs/native/m.cmt; discovery must hand the typed pass one of them *)
let test_one_cmt_per_module () =
  let root = Filename.temp_file "lint_cmts" "" in
  Sys.remove root;
  let objs = Filename.concat root "lib/.x.objs" in
  List.iter
    (fun d -> Sys.mkdir d 0o755)
    [ root; Filename.concat root "lib"; objs; Filename.concat objs "byte";
      Filename.concat objs "native" ];
  let files = [ "byte/x__M.cmt"; "byte/x__N.cmt"; "native/x__M.cmt"; "native/x__N.cmt" ] in
  List.iter (fun f -> close_out (open_out (Filename.concat objs f))) files;
  let cmts =
    Lint_typed.discover_cmts ~root { tcfg with Config.typed_dirs = [ "lib" ] }
  in
  List.iter (fun f -> Sys.remove (Filename.concat objs f)) files;
  List.iter Sys.rmdir
    [ Filename.concat objs "native"; Filename.concat objs "byte"; objs;
      Filename.concat root "lib"; root ];
  Alcotest.(check (list string)) "the byte cmt of each module, once"
    [ Filename.concat objs "byte/x__M.cmt"; Filename.concat objs "byte/x__N.cmt" ]
    cmts

(* compilation units of lib/: one per .ml plus the alias module dune
   generates (.ml-gen) for each wrapped library, counted in the tree
   whose cmts the typed pass reads *)
let lib_module_count () =
  let built = Filename.concat repo_root "_build/default/lib" in
  let lib = if Sys.file_exists built then built else Filename.concat repo_root "lib" in
  let rec count dir =
    Array.fold_left
      (fun n name ->
        let path = Filename.concat dir name in
        if String.starts_with ~prefix:"." name then n
        else if Sys.is_directory path then n + count path
        else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".ml-gen" then
          n + 1
        else n)
      0 (Sys.readdir dir)
  in
  count lib

let test_typed_clean_tree () =
  (* the committed config over the real lib/ cmts: zero unaudited
     P/E/A findings, a call graph of real size, justified audits *)
  let cfg = Config.load (Filename.concat repo_root "lint.toml") in
  let cmts = Lint_typed.discover_cmts ~root:repo_root cfg in
  Alcotest.(check bool) "lib cmts discovered" true (List.length cmts > 30);
  let r = Lint_typed.analyze ~root:repo_root cfg ~cmts in
  (* one unit per module: a native cmt beside the byte one must not
     load the same module twice *)
  Alcotest.(check int) "one cmt unit per lib module" (lib_module_count ())
    r.Lint_typed.stats.Lint_typed.units;
  List.iter
    (fun (f : Lint.finding) ->
      Format.eprintf "unexpected: %s:%d [%s] %s@." f.file f.line f.rule f.message)
    r.Lint_typed.findings;
  Alcotest.(check int) "lib/ typed-clean" 0 (List.length r.Lint_typed.findings);
  let s = r.Lint_typed.stats in
  Alcotest.(check bool) "whole-program graph built" true
    (s.Lint_typed.defs > 300 && s.Lint_typed.edges > 500);
  Alcotest.(check bool) "decoder read path and transport receive verified" true
    (s.Lint_typed.never_raise_defs >= 7);
  Alcotest.(check bool) "typed suppressions are audited" true
    (List.for_all
       (fun (s : Lint.suppression) -> String.length s.Lint.s_just > 0)
       r.Lint_typed.suppressions)

let suites =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "D1 nondeterminism sources" `Quick test_d1;
        Alcotest.test_case "D2 unordered escape" `Quick test_d2;
        Alcotest.test_case "D3 polymorphic structure" `Quick test_d3;
        Alcotest.test_case "D4 environment reads" `Quick test_d4;
        Alcotest.test_case "H1 hot-path allocation" `Quick test_h1;
        Alcotest.test_case "H1 scoped to hot modules" `Quick test_h1_only_when_hot;
        Alcotest.test_case "H2 boxing hazards" `Quick test_h2;
        Alcotest.test_case "H2 constructor arguments exempt" `Quick test_h2_ctor_args_exempt;
        Alcotest.test_case "H2 scoped to exact-zero modules" `Quick test_h2_only_when_listed;
        Alcotest.test_case "S1 suppression hygiene" `Quick test_s1;
        Alcotest.test_case "H1 allow placement is uniform" `Quick test_h1_scope;
        Alcotest.test_case "M1 missing interface" `Quick test_m1;
      ] );
    ( "lint.typed",
      [
        Alcotest.test_case "P domain-safety cases" `Quick test_p_cases;
        Alcotest.test_case "E never-raise cases" `Quick test_e_cases;
        Alcotest.test_case "E witness chain" `Quick test_e_witness;
        Alcotest.test_case "A allocation cases" `Quick test_a_cases;
        Alcotest.test_case "audited typed suppressions" `Quick test_typed_suppressed;
        Alcotest.test_case "call graph over two units" `Quick test_call_graph;
        Alcotest.test_case "SARIF emitter smoke" `Quick test_sarif_smoke;
        Alcotest.test_case "one cmt per module" `Quick test_one_cmt_per_module;
        Alcotest.test_case "lib cmts are typed-clean" `Quick test_typed_clean_tree;
      ] );
    ( "lint.tree",
      [
        Alcotest.test_case "suppression audit trail" `Quick test_suppression;
        Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
        Alcotest.test_case "lint.toml loads" `Quick test_config_load;
        Alcotest.test_case "lib tree is clean" `Quick test_clean_tree;
      ] );
  ]

(* Thin cmdliner driver over Tstm_lint (see lib/lint).

   Usage:
     lint [DIR|FILE]...                 repo pass (default: lib bin test
                                        bench examples)
     lint --format=github lib bin test  CI annotations
     lint --format=json ...             machine-readable findings
     lint --teeth test/lint_fixtures    fixture corpus: every finding must
                                        match a `lint: expect` directive
     lint --rules                       list the shipped rules

   Exit status: 0 clean, 1 findings (or teeth mismatches). *)

open Tstm_lint

type format = Human | Github | Json

let run_lint format roots =
  let roots =
    if roots = [] then [ "lib"; "bin"; "test"; "bench"; "examples" ] else roots
  in
  let { Engine.findings; files_checked } = Engine.run ~roots () in
  let rules = List.length Rules.all in
  (match format with
  | Human -> print_string (Report.human ~files_checked ~rules findings)
  | Github ->
      print_string (Report.github findings);
      print_string (Report.human ~files_checked ~rules findings)
  | Json -> print_string (Report.json ~files_checked findings));
  if List.exists Finding.is_error findings then 1 else 0

let run_teeth roots =
  let roots = if roots = [] then [ "test/lint_fixtures" ] else roots in
  let { Engine.mismatches; expectations } = Engine.teeth ~roots () in
  match mismatches with
  | [] ->
      Printf.printf "lint --teeth: OK (%d expectations all fired at their \
                     declared lines)\n"
        expectations;
      0
  | ms ->
      List.iter print_endline ms;
      Printf.printf "lint --teeth: %d mismatch%s\n" (List.length ms)
        (if List.length ms = 1 then "" else "es");
      1

let run_rules () =
  print_string (Report.rule_table Rules.all);
  0

let main list_rules teeth format roots =
  if list_rules then run_rules ()
  else if teeth then run_teeth roots
  else run_lint format roots

open Cmdliner

let format =
  let fmt_conv =
    Arg.enum [ ("human", Human); ("github", Github); ("json", Json) ]
  in
  Arg.(
    value
    & opt fmt_conv Human
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:
          "Report format: $(b,human), $(b,github) (GitHub Actions \
           annotations) or $(b,json).")

let teeth =
  Arg.(
    value & flag
    & info [ "teeth" ]
        ~doc:
          "Fixture-corpus mode: walk the given roots (default \
           test/lint_fixtures) and require every finding to be announced \
           by a $(b,lint: expect) directive on its exact line, and every \
           expectation to fire.")

let list_rules =
  Arg.(value & flag & info [ "rules" ] ~doc:"List the shipped rules and exit.")

let roots =
  Arg.(value & pos_all string [] & info [] ~docv:"DIR"
         ~doc:"Roots to lint (default: lib bin test bench examples).")

let cmd =
  let doc = "AST-driven STM-discipline lint for this repository" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Static analysis over real OCaml parsetrees (compiler-libs): \
         hygiene and determinism rules plus STM-protocol rules \
         (orec acquire/release pairing, tap pairing, cycle-charge \
         reachability, the library layering DAG).  See DESIGN.md \
         section 4h.";
      `P
        "Suppress a finding with an explained allow comment: \
         (* lint: allow <rule-id> — <reason> *).  Unknown rule ids and \
         stale suppressions are themselves findings.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(const main $ list_rules $ teeth $ format $ roots)

let () = exit (Cmd.eval' cmd)

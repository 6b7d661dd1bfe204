(* The semantic lint tier (KPT1xx) and its driver:

   - KPT101/KPT102 fire on the crafted dead-statement spec and stay
     silent on every bundled protocol (the figures excepted: figure2's
     s0 is genuinely unreachable, which is the point of the figure);
   - KPT104 counts the stuck states of the crafted spec;
   - KPT105's local predicate for relay, substituted for the knowledge
     guards, yields the identical solve verdict (the Figure 3→4 move);
   - [kpt lint --semantic] at -j 4 is byte-identical to -j 1, text and
     JSON, over the spec corpus;
   - the JSON batch output matches the CLI-produced golden. *)

module Lint = Kpt_analysis.Lint
module Semantic = Kpt_analysis.Semantic
module D = Kpt_analysis.Diagnostic
module Space = Kpt_predicate.Space
module Bdd = Kpt_predicate.Bdd
module Kbp = Kpt_core.Kbp

let spec_names () =
  Sys.readdir "../examples/specs" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".unity")
  |> List.sort compare

let corpus () =
  List.map
    (fun n -> ("examples/specs/" ^ n, Helpers.slurp ("../examples/specs/" ^ n)))
    (spec_names ())

let codes ds = List.map (fun (d : D.t) -> d.D.code) ds

let semantic_diags path =
  Lint.lint_source_semantic ~file:path (Helpers.slurp ("../" ^ path))

(* ---- the crafted dead-statement spec ----------------------------------------- *)

let test_deadcode_fires () =
  let ds = semantic_diags "examples/analysis/deadcode.unity" in
  let cs = codes ds in
  Alcotest.(check bool) "KPT101 fires on ghost" true (List.mem "KPT101" cs);
  Alcotest.(check bool) "KPT102 fires on never" true (List.mem "KPT102" cs);
  let find code =
    (List.find (fun (d : D.t) -> d.D.code = code) ds).D.message
  in
  Alcotest.(check bool) "KPT101 names the statement" true
    (String.length (find "KPT101") > 5 && String.sub (find "KPT101") 0 5 = "ghost");
  Alcotest.(check bool) "KPT102 names the statement" true
    (let m = find "KPT102" in
     let needle = "guard of never" in
     String.length m >= String.length needle
     && String.sub m 0 (String.length needle) = needle)

let test_deadcode_stuck_count () =
  let ds = semantic_diags "examples/analysis/deadcode.unity" in
  match List.find_opt (fun (d : D.t) -> d.D.code = "KPT104") ds with
  | None -> Alcotest.fail "expected a KPT104 finding"
  | Some d ->
      (* x = 2 ∧ ¬flag enables nothing: exactly one stuck state *)
      Alcotest.(check bool) "one stuck state, counted symbolically" true
        (String.length d.D.message > 1 && String.sub d.D.message 0 1 = "1")

(* ---- silence on the bundled protocols ----------------------------------------- *)

let test_silent_on_protocols () =
  List.iter
    (fun name ->
      if name <> "figure1.unity" && name <> "figure2.unity" then begin
        let ds = semantic_diags ("examples/specs/" ^ name) in
        List.iter
          (fun (d : D.t) ->
            if d.D.code = "KPT101" || d.D.code = "KPT102" then
              Alcotest.failf "%s: unexpected %s: %s" name d.D.code d.D.message)
          ds
      end)
    (spec_names ());
  let ds = semantic_diags "examples/analysis/ring_mon.unity" in
  Alcotest.(check (list string)) "ring_mon is semantically clean" [] (codes ds)

let test_unsat_init_is_kpt103 () =
  let src = "program contradict\nvar x : bool\ninit x /\\ ~x\nassign\n  s: x := true if ~x\n" in
  let ds = Lint.lint_source_semantic ~file:"contradict.unity" src in
  let cs = codes ds in
  Alcotest.(check bool) "KPT103 replaces the generic KPT003" true
    (List.mem "KPT103" cs && not (List.mem "KPT003" cs));
  Alcotest.(check bool) "and it is an error" true
    (List.exists (fun (d : D.t) -> d.D.code = "KPT103" && D.is_error d) ds)

(* ---- KPT105: relay's guards are locally implementable (Figure 3→4) ----------- *)

let replace ~needle ~by s =
  let nl = String.length needle and sl = String.length s in
  let rec find i =
    if i + nl > sl then None
    else if String.sub s i nl = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" needle
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + nl) (sl - i - nl)

let test_relay_local_substitution () =
  let src = Helpers.slurp "../examples/specs/relay.unity" in
  let sp, kbp = Kpt_syntax.Elaborate.program (Kpt_syntax.Parser.program_of_string src) in
  let si =
    match Kbp.solve kbp with
    | Kbp.Converged { si; _ } -> si
    | _ -> Alcotest.fail "relay must converge"
  in
  let local name =
    let s = List.find (fun (s : Kbp.kstmt) -> s.Kbp.kname = name) (Kbp.kstmts kbp) in
    match Semantic.local_guard kbp ~si s with
    | Some (pname, ell) ->
        Alcotest.(check string) (name ^ " is local to Right") "Right" pname;
        Semantic.render_local sp ~care:si ell
    | None -> Alcotest.failf "guard of %s should be locally implementable" name
  in
  let copy_local = local "copy" and report_local = local "report" in
  Alcotest.(check string) "copy's local predicate" "wire /\\ ~b" copy_local;
  Alcotest.(check string) "report's local predicate" "b /\\ ~done" report_local;
  (* substitute the local predicates for the knowledge guards: the
     protocol becomes standard, and its reachable set is the same SI *)
  let src' =
    src
    |> replace ~needle:"K[Right](a) /\\ ~b" ~by:copy_local
    |> replace ~needle:"K[Right](b) /\\ ~done" ~by:report_local
  in
  let sp', kbp' = Kpt_syntax.Elaborate.program (Kpt_syntax.Parser.program_of_string src') in
  Alcotest.(check bool) "the substituted protocol is standard" true (Kbp.is_standard kbp');
  let si' = Kpt_unity.Program.si (Kbp.to_standard_program kbp') in
  let show sp si = Format.asprintf "%a" (Space.pp_pred sp) si in
  Alcotest.(check string) "identical solve verdict (same SI, eq. 5)"
    (show sp si) (show sp' si');
  Alcotest.(check int) "same reachable-state count"
    (Space.count_states_of sp si) (Space.count_states_of sp' si')

(* ---- driver determinism and the golden ---------------------------------------- *)

let run_lint ~jobs ~json sources =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  let code = Lint.run_sources ~jobs ~semantic:true ~json ppf sources in
  Format.pp_print_flush ppf ();
  (code, Buffer.contents b)

let test_lint_jobs_differential () =
  let sources = corpus () in
  List.iter
    (fun json ->
      let c1, o1 = run_lint ~jobs:1 ~json sources in
      let c4, o4 = run_lint ~jobs:4 ~json sources in
      Alcotest.(check int)
        (Printf.sprintf "exit code at -j 4 (json=%b)" json)
        c1 c4;
      Alcotest.(check string)
        (Printf.sprintf "%s output byte-identical at -j 1 and -j 4"
           (if json then "JSON" else "text"))
        o1 o4)
    [ false; true ]

(* Regenerate with:
     dune exec bin/kpt.exe -- lint --semantic --json examples/specs/*.unity \
       --reorder=off > test/golden/lint_specs.json
   (from the repository root; --reorder=off because this test runs
   in-process under the library default, which is off — the CLI default
   is auto.  The semantic messages are reorder-independent by design, so
   the flag only pins the engine configuration, not the text.) *)
let test_lint_json_golden () =
  let expected = Helpers.slurp "golden/lint_specs.json" in
  let _, got = run_lint ~jobs:2 ~json:true (corpus ()) in
  Alcotest.(check string) "kpt lint --semantic --json batch summary" expected got

(* ---- the analysis budget ------------------------------------------------------ *)

let test_budget_degrades_to_kpt100 () =
  let src = Helpers.slurp "../examples/specs/token_ring_8.unity" in
  let budget = Kpt_predicate.Budget.limits ~fuel:1 () in
  let ds =
    Kpt_analysis.Semantic.analyse ~file:"token_ring_8.unity" ~budget
      (Kpt_syntax.Elaborate.program (Kpt_syntax.Parser.program_of_string src))
  in
  Alcotest.(check bool) "fuel 1 degrades to a KPT100 info, never an exception" true
    (List.exists (fun (d : D.t) -> d.D.code = "KPT100") ds);
  Alcotest.(check bool) "and nothing is an error" true
    (not (List.exists D.is_error ds))

(* ---- KPT105 over a wide support ---------------------------------------------- *)

(* [P] sees n booleans and the guard is K[P] of their disjunction.  The
   rendered local predicate counts the support's valuations; at n = 62
   that product once wrapped past max_int to a small number and the
   minterm walk never ended. *)
let wide_guard_spec n =
  let bs = List.init n (Printf.sprintf "b%d") in
  Printf.sprintf
    "program wide_guard\nvar y, %s : bool\nprocesses\n  P = { %s }\ninit ~y\nassign\n  s: y := true if K[P](%s)\n"
    (String.concat ", " bs) (String.concat ", " bs) (String.concat " \\/ " bs)

let test_kpt105_wide_support () =
  List.iter
    (fun n ->
      let file = Printf.sprintf "wide_guard%d.unity" n in
      let ds = Lint.lint_source_semantic ~file (wide_guard_spec n) in
      let summary =
        Printf.sprintf "(a predicate over %s)"
          (String.concat ", " (List.init n (Printf.sprintf "b%d")))
      in
      Alcotest.(check bool) (file ^ ": KPT105 summarises the support") true
        (List.exists
           (fun (d : D.t) -> d.D.code = "KPT105" && Helpers.contains ~affix:summary d.D.message)
           ds))
    [ 61; 62; 64 ]

let suite =
  [
    Alcotest.test_case "KPT101/102 fire on the dead-statement spec" `Quick
      test_deadcode_fires;
    Alcotest.test_case "KPT104 counts the stuck states" `Quick test_deadcode_stuck_count;
    Alcotest.test_case "silent on the bundled protocols" `Quick test_silent_on_protocols;
    Alcotest.test_case "unsatisfiable init is KPT103" `Quick test_unsat_init_is_kpt103;
    Alcotest.test_case "relay: local substitution preserves the verdict" `Quick
      test_relay_local_substitution;
    Alcotest.test_case "lint --semantic -j4 byte-identical to -j1" `Quick
      test_lint_jobs_differential;
    Alcotest.test_case "lint --json golden" `Quick test_lint_json_golden;
    Alcotest.test_case "budget exhaustion degrades to KPT100" `Quick
      test_budget_degrades_to_kpt100;
    Alcotest.test_case "KPT105 on a 62-boolean support terminates" `Quick
      test_kpt105_wide_support;
  ]

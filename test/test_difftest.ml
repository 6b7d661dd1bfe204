(* The differential/metamorphic harness ([Kpt_analysis.Difftest]):
   agreement on a known-good spec with the advertised comparison count,
   detection of an envelope mismatch and of a lying extra path, greedy
   shrinking to a minimal reproducer, the verdict classifier, the
   log-log fit, the CORPUS_RESULTS.json document shape, and the exit-code
   contract of the real [kpt difftest] binary. *)

module Difftest = Kpt_analysis.Difftest
module Gen = Kpt_gen.Gen
module Rng = Kpt_gen.Rng

let seed = 0xD1FFL

(* A three-statement program whose solve is instant: plenty of structure
   for permutation/rename/slice to chew on. *)
let source =
  "program tiny\n\
   var a, b, c : bool\n\
   init ~a /\\ ~b /\\ ~c\n\
   assign\n\
  \  s1: a := true\n\
   | s2: b := a if a\n\
   | s3: c := b if b\n"

let run ?extra_paths ?expected () =
  Difftest.run_spec ?extra_paths ?expected ~seed ~limits:Difftest.envelope_limits
    ~file:"tiny.unity" ~source ()

let test_agreement_and_count () =
  let r = run () in
  Alcotest.(check (list string)) "no disagreements" []
    (List.map (fun d -> d.Difftest.d_check) r.Difftest.r_disagreements);
  (* 2 builtin byte pairs + slice + rename + permute = 5; no envelope,
     no extra paths *)
  Alcotest.(check int) "comparison count" 5 r.Difftest.r_comparisons;
  Alcotest.(check string) "verdict class" "standard" r.Difftest.r_verdict.Difftest.klass

let test_envelope_comparison () =
  let good = Difftest.check_verdict ~limits:Difftest.envelope_limits ~file:"tiny.unity" source in
  let r = run ~expected:good () in
  Alcotest.(check int) "envelope adds one comparison" 6 r.Difftest.r_comparisons;
  Alcotest.(check int) "matching envelope is clean" 0
    (List.length r.Difftest.r_disagreements);
  let wrong = { good with Difftest.klass = "kbp_cycle"; exit_code = 1 } in
  let r = run ~expected:wrong () in
  match
    List.find_opt (fun d -> d.Difftest.d_check = "envelope") r.Difftest.r_disagreements
  with
  | None -> Alcotest.fail "wrong envelope not flagged"
  | Some d ->
      Alcotest.(check bool) "detail names both sides" true
        (String.length d.Difftest.d_detail > 0)

let test_lying_path_is_caught_and_shrunk () =
  (* a path that deliberately corrupts its stdout must produce exactly
     one byte disagreement, named after the path, with a shrunk source *)
  let liar =
    {
      Difftest.path_name = "liar";
      run =
        (fun ~limits ~file ~source ->
          let o = Difftest.base_path.Difftest.run ~limits ~file ~source in
          { o with Kpt_analysis.Driver.out = o.Kpt_analysis.Driver.out ^ "extra\n" });
    }
  in
  let r = run ~extra_paths:[ liar ] () in
  let ds =
    List.filter
      (fun d -> d.Difftest.d_check = "path:check-j1-vs-liar")
      r.Difftest.r_disagreements
  in
  Alcotest.(check int) "exactly one disagreement, on the liar" 1 (List.length ds);
  Alcotest.(check int) "honest paths stay clean"
    (List.length r.Difftest.r_disagreements)
    (List.length ds);
  match (List.hd ds).Difftest.d_shrunk with
  | None -> Alcotest.fail "liar disagreement was not shrunk"
  | Some shrunk ->
      (* the liar lies on everything, so the shrinker bottoms out at a
         single statement *)
      let ast = Kpt_syntax.Parser.program_of_string shrunk in
      Alcotest.(check int) "shrunk to one statement" 1
        (List.length ast.Kpt_syntax.Ast.p_stmts)

let test_shrink_minimises () =
  (* badness = "mentions s2"; the minimum is the program with s2 alone *)
  let still_bad src =
    match Kpt_syntax.Parser.program_of_string src with
    | exception _ -> false
    | ast ->
        List.exists
          (fun s -> s.Kpt_syntax.Ast.s_name = Some "s2")
          ast.Kpt_syntax.Ast.p_stmts
  in
  match Difftest.shrink ~still_bad source with
  | None -> Alcotest.fail "shrink returned None on a parseable source"
  | Some shrunk ->
      let ast = Kpt_syntax.Parser.program_of_string shrunk in
      Alcotest.(check (list string)) "only the culprit statement remains" [ "s2" ]
        (List.filter_map (fun s -> s.Kpt_syntax.Ast.s_name) ast.Kpt_syntax.Ast.p_stmts);
      Alcotest.(check (option string)) "unparseable input is refused" None
        (Difftest.shrink ~still_bad "not a program")

let test_verdict_classes () =
  let v = Difftest.check_verdict ~limits:Difftest.envelope_limits ~file:"t.unity" source in
  Alcotest.(check string) "clean spec is standard" "standard" v.Difftest.klass;
  Alcotest.(check bool) "clean spec passed" false v.Difftest.failed;
  let tight = Kpt_predicate.Budget.limits ~fuel:1 () in
  let v = Difftest.check_verdict ~limits:tight ~file:"t.unity" source in
  Alcotest.(check string) "fuel 1 is exhausted" "exhausted" v.Difftest.klass;
  Alcotest.(check int) "exhausted exit code" 3 v.Difftest.exit_code;
  let v =
    Difftest.check_verdict ~limits:Difftest.envelope_limits ~file:"t.unity"
      "program broken\nvar x : bool\ninit x\nassign\n  s: y := true"
  in
  Alcotest.(check string) "undeclared variable is error class" "error" v.Difftest.klass;
  Alcotest.(check bool) "error class failed" true v.Difftest.failed

let test_loglog_slope () =
  (* ns = size^2 exactly → slope 2 *)
  let rows = [ (1, 100L); (2, 400L); (4, 1600L) ] in
  (match Difftest.loglog_slope rows with
  | None -> Alcotest.fail "slope missing on 3 distinct sizes"
  | Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "quadratic fit (got %f)" s)
        true
        (Float.abs (s -. 2.0) < 1e-6));
  Alcotest.(check bool) "one distinct size has no slope" true
    (Option.is_none (Difftest.loglog_slope [ (3, 100L); (3, 200L) ]))

let mem k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "report is missing %S" k

let as_int k j =
  match Json.to_int (mem k j) with
  | Some n -> n
  | None -> Alcotest.failf "report field %S is not an int" k

let test_report_json_shape () =
  let r = run () in
  let obs family size =
    {
      Difftest.o_family = family;
      o_size = size;
      o_fault = "none";
      o_budget = "none";
      o_ns = Int64.of_int (100 * size * size);
      o_result = r;
    }
  in
  let j =
    Difftest.report_json ~seed:"0x1" ~paths:(Difftest.path_names ~extra_paths:[])
      [ obs "ring" 1; obs "ring" 2; obs "relay" 2 ]
  in
  (* survives serialisation *)
  let j = Json.of_string (Json.to_string j) in
  let corpus = mem "corpus" j and diff = mem "difftest" j in
  Alcotest.(check int) "corpus.specs" 3 (as_int "specs" corpus);
  Alcotest.(check int) "difftest.disagreements" 0 (as_int "disagreements" diff);
  Alcotest.(check int) "difftest.comparisons" 15 (as_int "comparisons" diff);
  Alcotest.(check int) "all six checks listed" 6
    (List.length (Option.value ~default:[] (Json.to_list (mem "paths" diff))));
  (match mem "pass_rate" diff with
  | Json.Float f -> Alcotest.(check bool) "pass rate is 1" true (f = 1.0)
  | Json.Int 1 -> ()
  | _ -> Alcotest.fail "pass_rate missing");
  Alcotest.(check int) "outcome tally" 3 (as_int "standard" (mem "outcomes" j));
  Alcotest.(check int) "no budgeted runs" 0 (as_int "budgeted_runs" (mem "budget" j));
  (* per-family fits exist for the multi-size family only *)
  let fits = Option.value ~default:[] (Json.to_list (mem "fits" j)) in
  let fams =
    List.filter_map (fun f -> Json.to_str (mem "family" f)) fits |> List.sort compare
  in
  Alcotest.(check (list string)) "fit for the multi-size family" [ "ring" ] fams

(* CI relies on [kpt difftest] exiting 1 on any disagreement, so the
   contract is pinned through the real binary: a freshly generated corpus
   agrees (exit 0, a parseable report); a manifest that expects the wrong
   exit code for one instance is a printed disagreement and exit 1. *)
let test_cli_exit_code () =
  let dir = Filename.temp_dir "kpt-difftest" "" in
  let corpus = Filename.concat dir "D" and report = Filename.concat dir "R.json" in
  let code, _, err = Helpers.run_kpt [ "gen"; "--count"; "6"; "--seed"; "1"; "-o"; corpus ] in
  Alcotest.(check int) ("kpt gen exits 0: " ^ err) 0 code;
  let difftest () = Helpers.run_kpt [ "difftest"; corpus; "--no-serve"; "--report"; report ] in
  let code, out, err = difftest () in
  Alcotest.(check int) ("a clean corpus exits 0: " ^ out ^ err) 0 code;
  (match Json.of_string (Helpers.slurp report) with
  | j -> ignore (mem "difftest" j)
  | exception Json.Parse_error m -> Alcotest.failf "report does not parse: %s" m);
  let manifest = Filename.concat corpus "manifest.json" in
  let map_field key f = function
    | Json.Obj fs -> Json.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fs)
    | v -> v
  in
  let tamper =
    map_field "instances" (function
      | Json.List (first :: rest) ->
          Json.List (map_field "expected" (map_field "exit" (fun _ -> Json.Int 1)) first :: rest)
      | v -> v)
  in
  let tampered = Json.to_string (tamper (Json.of_string (Helpers.slurp manifest))) in
  Out_channel.with_open_bin manifest (fun oc -> output_string oc tampered);
  let code, out, err = difftest () in
  Alcotest.(check int) "a wrong manifest exit code makes difftest exit 1" 1 code;
  Alcotest.(check bool) "the disagreement is printed" true
    (Helpers.contains ~affix:"DISAGREEMENT envelope" (out ^ err));
  Array.iter (fun f -> Sys.remove (Filename.concat corpus f)) (Sys.readdir corpus);
  Unix.rmdir corpus;
  Sys.remove report;
  Unix.rmdir dir

let suite =
  [
    Alcotest.test_case "all paths agree on a clean spec" `Quick test_agreement_and_count;
    Alcotest.test_case "envelope differential detects a wrong manifest" `Quick
      test_envelope_comparison;
    Alcotest.test_case "a lying path is caught and shrunk" `Quick
      test_lying_path_is_caught_and_shrunk;
    Alcotest.test_case "shrink finds the minimal reproducer" `Quick test_shrink_minimises;
    Alcotest.test_case "verdict classifier: standard / exhausted / error" `Quick
      test_verdict_classes;
    Alcotest.test_case "log-log slope fit" `Quick test_loglog_slope;
    Alcotest.test_case "CORPUS_RESULTS.json shape" `Quick test_report_json_shape;
    Alcotest.test_case "kpt difftest exit code through the binary" `Quick test_cli_exit_code;
  ]

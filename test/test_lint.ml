(* The static-analysis subsystem: diagnostics, read/write sets, and the
   lint passes — including the paper-specific checks that predict the
   Figure 1-2 pathologies from the program text alone. *)

open Kpt_predicate
open Kpt_unity
open Kpt_syntax
open Kpt_analysis
module D = Diagnostic

let lint = Lint.lint_source ~file:"test.unity"
let codes ds = List.map (fun (d : D.t) -> d.D.code) ds
let find code ds = List.find_opt (fun (d : D.t) -> d.D.code = code) ds
let has code ds = find code ds <> None

let check_codes msg expected ds =
  Alcotest.(check (list string)) msg expected (codes ds)

(* position of the first occurrence of [needle] in the [line]th (1-based)
   line of [src], as a (line, col) pair — so span expectations track the
   fixture text instead of hard-coding columns *)
let pos_of src ~line needle =
  let lines = String.split_on_char '\n' src in
  let text = List.nth lines (line - 1) in
  let rec go i =
    if i + String.length needle > String.length text then
      Alcotest.failf "%S not found on line %d" needle line
    else if String.sub text i (String.length needle) = needle then i + 1
    else go (i + 1)
  in
  (line, go 0)

let check_span msg src ~line needle (d : D.t) =
  let el, ec = pos_of src ~line needle in
  match d.D.span with
  | Some { Loc.line = l; col = c } ->
      Alcotest.(check (pair int int)) msg (el, ec) (l, c)
  | None -> Alcotest.failf "%s: diagnostic has no span" msg

(* ---- the paper's figures: the polarity pass must predict the pathology ---- *)

let figure1_src =
  {|program figure1
var shared, x : bool
processes
  P0 = { shared }
  P1 = { shared, x }
init ~shared /\ ~x
assign
  s0: shared := true if K[P0](~x)
| s1: x, shared := true, false if shared
|}

let figure2_src =
  {|program figure2
var x, y, z : bool
processes
  P0 = { y }
  P1 = { z }
init ~y
assign
  s0: y := true if K[P0](x)
| s1: z := true if K[P1](~y)
|}

let test_figure1_polarity () =
  let ds = lint figure1_src in
  check_codes "exactly the Figure-1 warning" [ "KPT010" ] ds;
  let d = Option.get (find "KPT010" ds) in
  Alcotest.(check bool) "warning severity" true (d.D.severity = D.Warning);
  check_span "K operator span" figure1_src ~line:8 "K[P0]" d;
  Alcotest.(check int) "clean exit without --warn-error" 0 (D.exit_code ds);
  Alcotest.(check int) "non-zero under --warn-error" 1 (D.exit_code ~warn_error:true ds)

let test_figure2_polarity () =
  let ds = lint figure2_src in
  (* s1's K[P1](~y) is the non-monotonicity trigger; z is write-only *)
  let d = Option.get (find "KPT010" ds) in
  check_span "K operator span" figure2_src ~line:9 "K[P1]" d;
  let wo = Option.get (find "KPT021" ds) in
  Alcotest.(check bool) "write-only z is Info" true (wo.D.severity = D.Info);
  check_codes "nothing else" [ "KPT021"; "KPT010" ] ds;
  Alcotest.(check int) "infos and warnings exit 0" 0 (D.exit_code ds)

let test_negative_position () =
  let src =
    {|program negk
var x, y : bool
processes
  P0 = { x }
init true
assign
  s: y := true if ~K[P0](x)
|}
  in
  let ds = lint src in
  Alcotest.(check bool) "K in negative position" true (has "KPT011" ds);
  (* x itself is not negated inside the operator *)
  Alcotest.(check bool) "no negated-fact warning" false (has "KPT010" ds)

(* ---- the shipped example specs lint exactly as documented ----------------- *)

let spec name = "../examples/specs/" ^ name

let test_examples_clean () =
  List.iter
    (fun name ->
      let ds = Lint.lint_source ~file:name (Helpers.slurp (spec name)) in
      check_codes (name ^ " is clean") [] ds)
    [ "transmit.unity"; "mutex.unity" ]

let test_examples_figures () =
  List.iter
    (fun name ->
      let ds = Lint.lint_source ~file:name (Helpers.slurp (spec name)) in
      Alcotest.(check bool) (name ^ " triggers KPT010") true (has "KPT010" ds);
      Alcotest.(check bool)
        (name ^ " has no errors")
        true
        (not (List.exists D.is_error ds));
      Alcotest.(check int) (name ^ " fails under --warn-error") 1
        (D.exit_code ~warn_error:true ds))
    [ "figure1.unity"; "figure2.unity" ]

(* ---- locality and interference (eq. 13) ----------------------------------- *)

let test_locality_violation () =
  let src =
    {|program loc
var x, y : bool
processes
  P0 = { x }
  P1 = { x, y }
init true
assign
  s: x := true if K[P0](y) /\ y
|}
  in
  let ds = lint src in
  let d = Option.get (find "KPT012" ds) in
  Alcotest.(check bool) "locality is an error" true (D.is_error d);
  Alcotest.(check int) "exit 1" 1 (D.exit_code ds);
  (* the same guard with the read under K is implementable: K[P0](y) is a
     predicate on P0's variables by eq. 13 *)
  let ok_src =
    {|program loc
var x, y : bool
processes
  P0 = { x }
  P1 = { x, y }
init true
assign
  s: x := true if K[P0](y) /\ x
|}
  in
  check_codes "local guard is clean" [] (lint ok_src)

let test_unknown_process () =
  let src =
    {|program unk
var x : bool
processes
  P0 = { x }
init true
assign
  s: x := true if K[Q](x)
|}
  in
  let ds = lint src in
  Alcotest.(check bool) "undeclared process in K" true (has "KPT013" ds);
  Alcotest.(check bool) "elaboration also rejects it" true (has "KPT003" ds)

let test_undeclared_process_var () =
  let src =
    {|program badproc
var x : bool
processes
  P0 = { x, ghost }
init true
assign
  s: x := true
|}
  in
  Alcotest.(check bool) "process lists undeclared variable" true
    (has "KPT014" (lint src))

let test_foreign_write_and_interference () =
  let src =
    {|program intf
var x, y, z : bool
processes
  P0 = { x, z }
  P1 = { y, z }
init true
assign
  s0: y := true if K[P0](x)
| s1: y := false if K[P1](x)
|}
  in
  let ds = lint src in
  (* s0 writes y on P0's behalf, but y is not P0's variable *)
  Alcotest.(check bool) "foreign write" true (has "KPT030" ds);
  (* y is written on behalf of both P0 and P1 *)
  Alcotest.(check bool) "interference" true (has "KPT031" ds)

(* ---- hygiene --------------------------------------------------------------- *)

let test_unused_and_write_only () =
  let src =
    {|program hyg
var x, unused, sink : bool
init x
assign
  s: sink := x
|}
  in
  let ds = lint src in
  let u = Option.get (find "KPT020" ds) in
  check_span "unused points at its declaration" src ~line:2 "unused" u;
  let wo = Option.get (find "KPT021" ds) in
  Alcotest.(check bool) "write-only is Info" true (wo.D.severity = D.Info);
  (* a variable read only by init is not unused: transmit.unity's w *)
  let init_read =
    {|program initread
var x, w : bool
init w = x
assign
  s: w := true
|}
  in
  check_codes "init counts as a read" [] (lint init_read)

let test_identity_and_duplicate () =
  let src =
    {|program dup
var x, y : bool
init x \/ y
assign
  spin: x := x
| a: y := x if x
| b: y := x if x
|}
  in
  let ds = lint src in
  Alcotest.(check bool) "identity assignment" true (has "KPT022" ds);
  let d = Option.get (find "KPT023" ds) in
  check_span "duplicate points at the later copy" src ~line:7 "b:" d

let test_constant_guards () =
  let src =
    {|program cg
var x : bool
var mode : enum(idle, busy)
init x /\ mode = idle
assign
  dead: x := false if x /\ false
| triv: x := true if true \/ x
| live: mode := busy if mode = idle
|}
  in
  let ds = lint src in
  let dead = Option.get (find "KPT024" ds) in
  Alcotest.(check bool) "false guard is a warning" true (dead.D.severity = D.Warning);
  let triv = Option.get (find "KPT025" ds) in
  Alcotest.(check bool) "true guard is an info" true (triv.D.severity = D.Info);
  check_codes "nothing else fires" [ "KPT024"; "KPT025" ] ds

let test_nat_range () =
  let src =
    {|program rng
var n : nat(2)
var m : nat(2)
init n = 0 /\ m = 0
assign
  a: n := n + 1 if n < 5
| b: m := n if 3 = m
|}
  in
  let ds = lint src in
  (match List.filter (fun (d : D.t) -> d.D.code = "KPT026") ds with
  | [ a; b ] ->
      check_span "n < 5 span" src ~line:6 "n < 5" a;
      Alcotest.(check bool) "n < 5 is always true" true
        (String.length a.D.message > 0
        && String.sub a.D.message (String.length a.D.message - 4) 4 = "true");
      Alcotest.(check bool) "3 = m is always false" true
        (String.sub b.D.message (String.length b.D.message - 5) 5 = "false")
  | other -> Alcotest.failf "expected two KPT026, got %d" (List.length other));
  (* the bound itself is in range: nat(2) ranges over 0..2 *)
  let ok =
    {|program rng2
var n : nat(2)
init n = 0
assign
  a: n := n + 1 if n < 2
| b: n := 0 if n = 2
|}
  in
  check_codes "comparisons at the bound are fine" [] (lint ok)

(* A constant past the range assigned to a nat(k) scalar or array
   element is an error; at the bound, computed, or under a guard that
   folds to false it is not. *)
let test_nat_range_assignment () =
  let src =
    {|program assign_rng
var n : nat(2)
var a : nat(1)[2]
var b : bool
init n = 0 /\ a[0] = 0 /\ a[1] = 0 /\ b
assign
  s: n := 3 if b
| t: a[n], n := 2, 2 if n < 2
| u: n := 1 + 1
| v: n := 5 if false
|}
  in
  let ds = lint src in
  (match List.filter (fun (d : D.t) -> d.D.code = "KPT027") ds with
  | [ s; t ] ->
      Alcotest.(check bool) "an error" true (s.D.severity = D.Error);
      check_span "n := 3 span" src ~line:7 "3 if" s;
      check_span "a[n] := 2 span" src ~line:8 "2, 2" t
  | other -> Alcotest.failf "expected two KPT027, got %d" (List.length other));
  Alcotest.(check int) "exit code" 1 (D.exit_code ds)

(* ---- syntax errors surface as diagnostics, never exceptions ---------------- *)

let test_syntax_errors_are_diagnostics () =
  let lex = lint "program p\ninit x ? y" in
  (match lex with
  | [ d ] ->
      Alcotest.(check string) "lex error code" "KPT001" d.D.code;
      Alcotest.(check bool) "positioned" true (d.D.span <> None)
  | _ -> Alcotest.fail "expected exactly one lexical diagnostic");
  let parse = lint "program p\nvar x : bool\ninit x /\\\nassign s: x := true" in
  (match parse with
  | [ d ] -> Alcotest.(check string) "parse error code" "KPT002" d.D.code
  | _ -> Alcotest.fail "expected exactly one parse diagnostic");
  let elab = lint "program p\nvar x : bool\ninit y\nassign s: x := true" in
  Alcotest.(check bool) "elaboration error code" true (has "KPT003" elab);
  Alcotest.(check int) "all exit non-zero" 1 (D.exit_code parse)

let test_rendering () =
  let ds = lint figure1_src in
  let d = Option.get (find "KPT010" ds) in
  let line = Format.asprintf "%a" D.pp d in
  let l, c = pos_of figure1_src ~line:8 "K[P0]" in
  Alcotest.(check string) "one-line rendering"
    (Printf.sprintf "test.unity:%d:%d: warning[KPT010]: %s" l c d.D.message)
    line;
  let excerpt = Format.asprintf "@[<v>%a@]" (D.pp_excerpt ~src:figure1_src) d in
  Alcotest.(check bool) "excerpt shows the source line" true
    (String.length excerpt > String.length line);
  Alcotest.(check string) "summary" "1 warning" (D.summary ds)

(* ---- read/write sets and the cone of influence ----------------------------- *)

let test_rw_and_cone () =
  let vars = Rw.S.of_list [ "a"; "b"; "c"; "d" ] in
  let p =
    Parser.program_of_string
      {|program cone
var a, b, c, d : bool
init a
assign
  s0: b := a
| s1: c := b if K[P](d)
|}
  in
  let s1 = List.nth p.Ast.p_stmts 1 in
  let rw = Rw.of_stmt ~vars s1 in
  Alcotest.(check (list string)) "writes" [ "c" ] (Rw.S.elements rw.Rw.writes);
  Alcotest.(check (list string)) "rhs reads" [ "b" ] (Rw.S.elements rw.Rw.rhs_reads);
  (match rw.Rw.kops with
  | [ k ] ->
      Alcotest.(check (list string)) "reads under K" [ "d" ]
        (Rw.S.elements k.Rw.kreads);
      Alcotest.(check bool) "not negated" true (Rw.S.is_empty k.Rw.negated_reads)
  | _ -> Alcotest.fail "expected one knowledge operator");
  Alcotest.(check (list string)) "all reads" [ "b"; "d" ]
    (Rw.S.elements (Rw.all_reads rw))

let test_program_cone () =
  let sp = Space.create () in
  let a = Space.bool_var sp "a" in
  let b = Space.bool_var sp "b" in
  let c = Space.bool_var sp "c" in
  let prog =
    Program.make sp ~name:"cone" ~init:(Expr.var a)
      [
        Stmt.make ~name:"s0" [ (b, Expr.var a) ];
        Stmt.make ~name:"s1" ~guard:(Expr.var b) [ (c, Expr.tru) ];
      ]
  in
  let idx v = Space.idx v in
  let cone = Rw.program_cone prog (Rw.V.singleton (idx c)) in
  Alcotest.(check (list int)) "influences of c"
    (List.sort compare [ idx a; idx b; idx c ])
    (List.sort compare (Rw.V.elements cone))

(* ---- protocols built through the OCaml API --------------------------------- *)

(* The bundled §6 protocols have no source, so the AST lint cannot see
   them; the semantic tier's program passes (KPT101/102/104) can. *)
let test_bundled_protocols_clean () =
  let open Kpt_protocols in
  let params = { Seqtrans.n = 2; a = 2 } in
  let progs =
    [
      ("abp", (Abp.make ~lossy:true params).Abp.prog);
      ("stenning", (Stenning.make ~lossy:true params).Stenning.prog);
      ("auy", (Auy.make params).Auy.prog);
      ("window", (Window.make ~lossy:false ~window:2 params).Window.prog);
      ("seqtrans-std", (Seqtrans.standard ~lossy:false params).Seqtrans.sprog);
      ("seqtrans-kbp", (Seqtrans.abstract_kbp params).Seqtrans.aprog);
    ]
  in
  List.iter
    (fun (name, prog) ->
      let ds = Semantic.analyse_program prog in
      let loud = List.filter (fun (d : D.t) -> d.D.severity <> D.Info) ds in
      Alcotest.(check (list string)) (name ^ " lints clean") [] (codes loud))
    progs

(* ---- the kpt lint driver: --quiet × --warn-error ----------------------- *)

(* The 2×2 flag matrix on Figure 1 (one warning, no errors).  --quiet
   must suppress every line of output and --warn-error alone must decide
   the exit code; the two flags never interact. *)
let test_flag_matrix () =
  let contains hay needle =
    let nl = String.length needle in
    let rec go i =
      i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun (warn_error, quiet) ->
      let label = Printf.sprintf "--warn-error=%b --quiet=%b" warn_error quiet in
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      let code = Lint.run_sources ~warn_error ~quiet ppf [ ("figure1.unity", figure1_src) ] in
      Format.pp_print_flush ppf ();
      let out = Buffer.contents buf in
      Alcotest.(check int)
        (label ^ ": exit code depends on --warn-error only")
        (if warn_error then 1 else 0)
        code;
      if quiet then Alcotest.(check string) (label ^ ": prints nothing") "" out
      else begin
        Alcotest.(check bool) (label ^ ": renders the finding") true (contains out "KPT010");
        Alcotest.(check bool) (label ^ ": renders the summary") true (contains out "warning")
      end)
    [ (false, false); (false, true); (true, false); (true, true) ];
  (* a clean file exits 0 and stays silent under --quiet in both modes *)
  let clean = "program ok\nvar b : bool\ninit ~b\nassign\n  s0: b := true if ~b\n" in
  List.iter
    (fun warn_error ->
      let buf = Buffer.create 16 in
      let ppf = Format.formatter_of_buffer buf in
      let code = Lint.run_sources ~warn_error ~quiet:true ppf [ ("ok.unity", clean) ] in
      Format.pp_print_flush ppf ();
      Alcotest.(check int) "clean file exits 0" 0 code;
      Alcotest.(check string) "clean file quiet output empty" "" (Buffer.contents buf))
    [ false; true ]

(* An unreadable input (here a directory) is a clean [error: PATH: msg]
   with exit 1 from every file-consuming command — never the exit-125
   internal-error trap an escaped [Sys_error] used to reach. *)
let test_unreadable_input_is_clean_error () =
  let dir = "../examples/specs" in
  List.iter
    (fun cmd ->
      let code, _, err = Helpers.run_kpt [ cmd; dir ] in
      Alcotest.(check bool) (cmd ^ " DIR: not an internal error") true (code <> 125);
      Alcotest.(check int) (cmd ^ " DIR: exit 1") 1 code;
      Alcotest.(check bool)
        (cmd ^ " DIR: error names the path")
        true
        (Helpers.contains ~affix:("error: " ^ dir ^ ": ") err);
      Alcotest.(check bool) (cmd ^ " DIR: says it is a directory") true
        (Helpers.contains ~affix:"is a directory" err))
    [ "lint"; "check"; "stats"; "solve-file"; "slice"; "parse"; "verify" ]

(* ---- the malformed-spec table ------------------------------------------------ *)

(* Every fixture under examples/malformed through every file-consuming
   command: exit 1, never an exception, and the one error carries the
   same code and line:col everywhere — bar the documented KPT103 upgrade
   of an unsatisfiable init under [--semantic].  [non_total] loads, so
   slice, which never builds the program, accepts it; plain lint flags
   its constant assignment statically (KPT027), and every command that
   solves it reports the solver's KPT003. *)
let solver_only = "examples/malformed/non_total.unity"

(* [file:line:col: error[KPTnnn]: ], the rendering minus the message *)
let error_prefix (d : D.t) = Format.asprintf "%a" D.pp { d with D.message = "" }

let render ds = List.map (Format.asprintf "%a" D.pp) ds

let test_malformed_table () =
  List.iter
    (fun ((file, src) as spec) ->
      let loads = file = solver_only in
      let report = List.hd (Check.reports ~jobs:1 [ spec ]) in
      let err =
        match List.filter D.is_error report.Check.diags with
        | [ d ] -> d
        | ds -> Alcotest.failf "%s: expected one error, got %d" file (List.length ds)
      in
      Alcotest.(check bool) (file ^ ": plain message") false
        (Helpers.contains ~affix:"Ill_formed" err.D.message);
      if not loads then
        Alcotest.(check (list string)) (file ^ ": check diags = lint diags")
          (render (Lint.lint_source ~file src))
          (render (Check.check_source ~file src).Check.diags);
      List.iter
        (fun (label, cmd, opts, sources) ->
          let name = file ^ " / " ^ label in
          let o = Kpt_serve.Handler.dispatch cmd opts sources in
          let syntactic = loads && label = "slice" in
          Alcotest.(check int) (name ^ ": exit") (if syntactic then 0 else 1) o.Driver.code;
          let printed = o.Driver.out ^ o.Driver.err in
          if cmd = Kpt_serve.Protocol.Check then
            Alcotest.(check bool) (name ^ ": FAIL line") true
              (Helpers.contains ~affix:(file ^ ": FAIL — does not elaborate; ") printed)
          else if loads && label = "lint" then
            Alcotest.(check bool) (name ^ ": KPT027 line") true
              (Helpers.contains ~affix:(file ^ ":7:11: error[KPT027]: ") printed)
          else if not syntactic then begin
            let upgraded =
              opts.Driver.semantic
              && Helpers.contains ~affix:"unsatisfiable initial condition" err.D.message
            in
            let expected =
              error_prefix (if upgraded then { err with D.code = "KPT103" } else err)
            in
            if not (Helpers.contains ~affix:expected printed) then
              Alcotest.failf "%s: expected a line starting %S in:\n%s" name expected printed
          end)
        (Helpers.malformed_runs spec))
    (Helpers.malformed_specs ())

(* A guard that uses a natural as a boolean ([transmit.unity] with
   [send]'s guard changed to [i /\ i <= j]) is a type error found at load
   time: every command prints the same spanned KPT003 line and exits 1 —
   none reaches the exit-125 trap of an [Expr.Type_error] escaping from
   the first compilation of the guard. *)
let test_ill_typed_guard () =
  let src =
    let s = Helpers.slurp "../examples/specs/transmit.unity" in
    let guard = "if i < 2 /\\ i <= j" in
    let n = String.length guard in
    let rec at k = if String.sub s k n = guard then k else at (k + 1) in
    let k = at 0 in
    String.sub s 0 k ^ "if i /\\ i <= j" ^ String.sub s (k + n) (String.length s - k - n)
  in
  let file = Filename.temp_file "ill_typed" ".unity" in
  Out_channel.with_open_bin file (fun oc -> output_string oc src);
  let expected =
    file ^ ":19:51: error[KPT003]: type error: ill-typed operand of boolean operator"
  in
  let first_line s = List.hd (String.split_on_char '\n' s) in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  List.iter
    (fun args ->
      let code, out, err = Helpers.run_kpt (args @ [ file ]) in
      let label = String.concat " " args in
      Alcotest.(check int) (label ^ ": exit") 1 code;
      if args = [ "check" ] then
        Alcotest.(check string) (label ^ ": FAIL line")
          (file ^ ": FAIL — does not elaborate; 1 error") (first_line out)
      else if args = [ "check"; "--json" ] then
        Alcotest.(check bool) (label ^ ": message") true
          (Helpers.contains ~affix:"\"KPT003\", \"severity\": \"error\", \"message\": \"type error: ill-typed operand of boolean operator\"" out)
      else Alcotest.(check string) (label ^ ": first line") expected (first_line (out ^ err)))
    [
      [ "check" ];
      [ "check"; "--json" ];
      [ "lint" ];
      [ "lint"; "--semantic" ];
      [ "slice" ];
      [ "stats" ];
      [ "solve-file" ];
      [ "verify" ];
      [ "knowledge"; "--process"; "Sender"; "--fact"; "true" ];
    ];
  (* a property given on the command line is sort-checked too *)
  List.iter
    (fun (prop, msg) ->
      let code, _, err =
        Helpers.run_kpt [ "verify"; "../examples/specs/transmit.unity"; "--invariant"; prop ]
      in
      Alcotest.(check int) (prop ^ ": exit") 1 code;
      Alcotest.(check string) (prop ^ ": message")
        (Printf.sprintf "error: in %S: type error: %s" prop msg) (first_line err))
    [ ("i /\\ j", "ill-typed operand of boolean operator"); ("i + j", "expected a boolean") ]

(* A [nat(k)] bound far beyond any explicit walk: elaboration must not
   touch its values one by one.  Every command finishes fast, on the CLI
   and through the daemon's dispatch, because the spec only ever reaches
   four states. *)
let huge_bound_src =
  {|program huge
var x : nat(99999999999)
var b : bool
init x = 0 /\ ~b
assign
  s0: b := ~b
| s1: x := 1 if b
|}

let test_huge_nat_bound () =
  let file = Filename.temp_file "huge" ".unity" in
  let oc = open_out_bin file in
  output_string oc huge_bound_src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let d = Driver.default_options in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun (args, cmd, opts) ->
      let name = String.concat " " args in
      let (code, out, _), secs =
        timed (fun () -> Helpers.run_kpt ~kill_after:10. (args @ [ file ]))
      in
      Alcotest.(check int) (name ^ ": exit") 0 code;
      if secs >= 1. then Alcotest.failf "%s took %.2f s" name secs;
      if cmd = Kpt_serve.Protocol.Check then
        Alcotest.(check bool) (name ^ ": four states") true
          (Helpers.contains ~affix:"4 reachable state(s)" out);
      let o, secs =
        timed (fun () -> Kpt_serve.Handler.dispatch cmd opts [ (file, huge_bound_src) ])
      in
      Alcotest.(check int) (name ^ " (dispatch): exit") 0 o.Driver.code;
      if secs >= 1. then Alcotest.failf "%s (dispatch) took %.2f s" name secs)
    Kpt_serve.Protocol.
      [
        ([ "lint" ], Lint, d);
        ([ "check" ], Check, d);
        ([ "lint"; "--semantic" ], Lint, { d with semantic = true });
        ([ "stats" ], Stats, d);
        ([ "solve-file" ], Solve, d);
      ]

let suite =
  [
    Alcotest.test_case "figure 1: K of a negated fact" `Quick test_figure1_polarity;
    Alcotest.test_case "figure 2: non-monotonic trigger" `Quick test_figure2_polarity;
    Alcotest.test_case "K in negative position" `Quick test_negative_position;
    Alcotest.test_case "shipped specs: transmit/mutex clean" `Quick test_examples_clean;
    Alcotest.test_case "shipped specs: figures warn" `Quick test_examples_figures;
    Alcotest.test_case "locality (eq. 13)" `Quick test_locality_violation;
    Alcotest.test_case "unknown process in K" `Quick test_unknown_process;
    Alcotest.test_case "undeclared process variable" `Quick test_undeclared_process_var;
    Alcotest.test_case "foreign writes + interference" `Quick
      test_foreign_write_and_interference;
    Alcotest.test_case "unused / write-only variables" `Quick test_unused_and_write_only;
    Alcotest.test_case "identity + duplicate statements" `Quick
      test_identity_and_duplicate;
    Alcotest.test_case "constant guards" `Quick test_constant_guards;
    Alcotest.test_case "nat range comparisons" `Quick test_nat_range;
    Alcotest.test_case "nat range assignments" `Quick test_nat_range_assignment;
    Alcotest.test_case "syntax errors as diagnostics" `Quick
      test_syntax_errors_are_diagnostics;
    Alcotest.test_case "rendering and exit codes" `Quick test_rendering;
    Alcotest.test_case "read/write sets + cone" `Quick test_rw_and_cone;
    Alcotest.test_case "semantic cone" `Quick test_program_cone;
    Alcotest.test_case "bundled protocols lint clean" `Quick
      test_bundled_protocols_clean;
    Alcotest.test_case "driver: --quiet x --warn-error matrix" `Quick test_flag_matrix;
    Alcotest.test_case "unreadable input is a clean error, not exit 125" `Quick
      test_unreadable_input_is_clean_error;
    Alcotest.test_case "malformed specs: one diagnostic on every command" `Quick
      test_malformed_table;
    Alcotest.test_case "ill-typed guard: one spanned KPT003 everywhere" `Quick
      test_ill_typed_guard;
    Alcotest.test_case "huge nat(k) bound: every command under 1 s" `Quick
      test_huge_nat_bound;
  ]

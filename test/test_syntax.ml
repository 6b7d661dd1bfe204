open Kpt_predicate
open Kpt_unity
open Kpt_core
open Kpt_syntax

let figure1_src =
  {|
-- Figure 1 of the paper: a knowledge-based protocol with no solution
program figure1
var shared, x : bool
processes
  P0 = { shared }
  P1 = { shared, x }
init ~shared /\ ~x
assign
  s0: shared := true if K[P0](~x)
| s1: x, shared := true, false if shared
|}

let counter_src =
  {|
program counter
var n : nat(5)
var mode : enum(idle, busy)
init n = 0 /\ mode = idle
assign
  work: n, mode := n + 1, busy if n < 5
| rest: mode := idle if mode = busy
|}

let test_lexer () =
  let toks = Token.tokenize "x := true if K[P](~y) -- comment\n| z" in
  let kinds = List.map (fun t -> t.Token.tok) toks in
  Alcotest.(check bool) "tokens" true
    (kinds
    = [
        Token.IDENT "x"; Token.BECOMES; Token.KTRUE; Token.KIF; Token.KKNOW; Token.LBRACK;
        Token.IDENT "P"; Token.RBRACK; Token.LPAR; Token.NOT; Token.IDENT "y"; Token.RPAR;
        Token.BAR; Token.IDENT "z"; Token.EOF;
      ])

let test_lexer_positions () =
  let toks = Token.tokenize "a\n  bc" in
  match toks with
  | [ a; b; _eof ] ->
      Alcotest.(check (pair int int)) "a at 1,1" (1, 1) (a.Token.line, a.Token.col);
      Alcotest.(check (pair int int)) "bc at 2,3" (2, 3) (b.Token.line, b.Token.col)
  | _ -> Alcotest.fail "expected three tokens"

let test_lexer_error () =
  (try
     ignore (Token.tokenize "x # y");
     Alcotest.fail "expected a lex error"
   with Token.Lex_error (span, msg) ->
     Alcotest.(check (pair int int)) "error position" (1, 3) (span.Loc.line, span.Loc.col);
     Alcotest.(check bool) "message names the character" true
       (String.length msg > 0))

let test_parse_figure1 () =
  let p = Parser.program_of_string figure1_src in
  Alcotest.(check string) "name" "figure1" p.Ast.p_name;
  Alcotest.(check int) "two processes" 2 (List.length p.Ast.p_processes);
  Alcotest.(check int) "two statements" 2 (List.length p.Ast.p_stmts);
  let s1 = List.nth p.Ast.p_stmts 1 in
  Alcotest.(check (list string)) "multiple assignment targets" [ "x"; "shared" ]
    (List.map
       (function Ast.Tvar v -> v | Ast.Tindex (v, _) -> v ^ "[..]")
       s1.Ast.s_targets)

let test_parse_precedence () =
  let mk = Ast.mk in
  let id s = mk (Ast.Eident s) in
  (* ~a /\ b \/ c => d  parses as  ((~a /\ b) \/ c) => d *)
  let e = Parser.expr_of_string "~a /\\ b \\/ c => d" in
  Alcotest.(check bool) "boolean precedence" true
    (Ast.equal_expr e
       (mk
          (Ast.Eimp
             ( mk (Ast.Eor (mk (Ast.Eand (mk (Ast.Enot (id "a")), id "b")), id "c")),
               id "d" ))));
  (* arithmetic binds tighter than comparison *)
  let e2 = Parser.expr_of_string "n + 1 <= m - 2" in
  Alcotest.(check bool) "arithmetic precedence" true
    (Ast.equal_expr e2
       (mk
          (Ast.Ele
             ( mk (Ast.Eadd (id "n", mk (Ast.Enum 1))),
               mk (Ast.Esub (id "m", mk (Ast.Enum 2))) ))))

let test_parse_group_knowledge () =
  let e = Parser.expr_of_string "C[A, B](x = 1) /\\ E[A](y)" in
  match e.Ast.expr with
  | Ast.Eand
      ( { Ast.expr = Ast.Egroup (Ast.Gcommon, [ "A"; "B" ], _); _ },
        { Ast.expr = Ast.Egroup (Ast.Geveryone, [ "A" ], _); _ } ) -> ()
  | _ -> Alcotest.fail "group knowledge misparsed"

let test_parse_errors () =
  let bad = [ "program"; "program p init true"; "program p init true assign x :="; "1 +" ] in
  List.iter
    (fun src ->
      try
        (match String.index_opt src ' ' with
        | Some _ when String.length src > 3 && String.sub src 0 7 = "program" ->
            ignore (Parser.program_of_string src)
        | _ -> ignore (Parser.expr_of_string src));
        Alcotest.failf "expected a parse error for %S" src
      with Parser.Parse_error _ | Token.Lex_error _ -> ())
    bad

let test_roundtrip () =
  List.iter
    (fun src ->
      let p = Parser.program_of_string src in
      let printed = Format.asprintf "%a" Ast.pp_program p in
      let p2 = Parser.program_of_string printed in
      let printed2 = Format.asprintf "%a" Ast.pp_program p2 in
      Alcotest.(check string) "print ∘ parse fixpoint" printed printed2)
    [ figure1_src; counter_src ]

let test_elaborate_counter () =
  let sp, kbp = Elaborate.program (Parser.program_of_string counter_src) in
  Alcotest.(check bool) "standard program" true (Kbp.is_standard kbp);
  let prog = Kbp.to_standard_program kbp in
  (* n counts to 5 and sticks; mode returns to idle *)
  let n = Space.find sp "n" in
  let at5 = Expr.compile_bool sp Expr.(var n === nat 5) in
  Alcotest.(check bool) "n reaches 5" true
    (Kpt_logic.Props.leads_to prog (Bdd.tru (Space.manager sp)) at5);
  Alcotest.(check bool) "n ≤ 5 invariant" true
    (Program.invariant prog (Expr.compile_bool sp Expr.(var n <== nat 5)))

let test_elaborate_enum_literal () =
  let sp, kbp = Elaborate.program (Parser.program_of_string counter_src) in
  let prog = Kbp.to_standard_program kbp in
  let mode = Space.find sp "mode" in
  (* 'idle' resolved as the enum literal 0 *)
  let idle = Expr.compile_bool sp Expr.(var mode === nat 0) in
  Alcotest.(check bool) "initially idle" true
    (Pred.holds_implies sp (Program.init prog) idle)

let test_elaborate_figure1_end_to_end () =
  (* The parsed Figure 1 must reproduce E1: no solution, 2-cycle. *)
  let _, kbp = Elaborate.program (Parser.program_of_string figure1_src) in
  Alcotest.(check bool) "knowledge-based" false (Kbp.is_standard kbp);
  Alcotest.(check int) "no solutions" 0 (List.length (Kbp.solutions kbp));
  match Kbp.solve kbp with
  | Kbp.Diverged { orbit; _ } -> Alcotest.(check int) "period 2" 2 (List.length orbit)
  | _ -> Alcotest.fail "should cycle"

let test_elaborate_errors () =
  let check_err src expected_fragment =
    try
      ignore (Elaborate.program (Parser.program_of_string src));
      Alcotest.failf "expected an elaboration error for %s" expected_fragment
    with Elaborate.Elab_error (_, msg) ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("error mentions " ^ expected_fragment) true
        (contains msg expected_fragment)
  in
  check_err "program p\nvar x : bool\ninit y\nassign s: x := true" "unknown identifier";
  check_err "program p\nvar x : bool\ninit true\nassign s: x, x := true, false if K[Q](x)"
    "unknown process";
  check_err "program p\nvar x : bool\ninit true\nassign s: x := true, false" "targets";
  check_err "program p\nvar x : bool\ninit K[P](x)\nassign s: x := true" "guards"

let test_expr_against_existing_space () =
  let sp = Space.create () in
  let _ = Space.nat_var sp "n" ~max:9 in
  let e = Elaborate.expr sp (Parser.expr_of_string "n + 3 <= 9") in
  Alcotest.(check bool) "typed bool" true (Expr.typeof e = Expr.Tbool);
  (* arrays are recovered from the element-naming convention *)
  let _ = Space.nat_var sp "a[0]" ~max:3 in
  let _ = Space.nat_var sp "a[1]" ~max:3 in
  let e2 = Elaborate.expr sp (Parser.expr_of_string "a[n - 8] = 2") in
  Alcotest.(check bool) "array expr typed" true (Expr.typeof e2 = Expr.Tbool)

let array_src =
  {|
-- a two-cell shift register: cells move toward the output
program shifty
var buf : nat(3)[2]
var out : nat(3)
var head : nat(1)
init buf[0] = 2 /\ buf[1] = 3 /\ out = 0 /\ head = 0
assign
  emit:  out, head := buf[head], head + 1 if head < 1
| last:  out := buf[head] if head = 1
| spin:  buf[head] := buf[head]
|}

let test_array_parse_roundtrip () =
  let p = Parser.program_of_string array_src in
  let printed = Format.asprintf "%a" Ast.pp_program p in
  let p2 = Parser.program_of_string printed in
  Alcotest.(check string) "array roundtrip" printed (Format.asprintf "%a" Ast.pp_program p2);
  match (List.hd p.Ast.p_stmts).Ast.s_exprs with
  | [ { Ast.expr = Ast.Eindex ("buf", { Ast.expr = Ast.Eident "head"; _ }); _ }; _ ] -> ()
  | _ -> Alcotest.fail "array index misparsed"

let test_array_elaborate () =
  let sp, kbp = Elaborate.program (Parser.program_of_string array_src) in
  let prog = Kbp.to_standard_program kbp in
  (* the shift register emits buf[0] then buf[1] *)
  let out = Space.find sp "out" in
  let final = Expr.compile_bool sp Expr.(var out === nat 3) in
  Alcotest.(check bool) "out eventually = buf[1] = 3" true
    (Kpt_logic.Props.leads_to prog (Bdd.tru (Space.manager sp)) final);
  (* element naming *)
  Alcotest.(check bool) "elements declared" true
    (match Space.find sp "buf[0]" with _ -> true | exception Not_found -> false)

let test_array_write_semantics () =
  let src =
    {|
program store
var a : nat(4)[3]
var i : nat(2)
init a[0] = 0 /\ a[1] = 0 /\ a[2] = 0 /\ i = 0
assign
  w: a[i], i := 4, i + 1 if i < 2
|}
  in
  let sp, kbp = Elaborate.program (Parser.program_of_string src) in
  let prog = Kbp.to_standard_program kbp in
  (* writing through the moving index never touches a[2] *)
  let a2 = Space.find sp "a[2]" in
  Alcotest.(check bool) "a[2] stays 0" true
    (Program.invariant prog (Expr.compile_bool sp Expr.(var a2 === nat 0)));
  let a0 = Space.find sp "a[0]" in
  Alcotest.(check bool) "a[0] eventually 4" true
    (Kpt_logic.Props.leads_to prog (Bdd.tru (Space.manager sp))
       (Expr.compile_bool sp Expr.(var a0 === nat 4)))

let test_array_errors () =
  let check_err src frag =
    try
      ignore (Elaborate.program (Parser.program_of_string src));
      Alcotest.failf "expected error about %s" frag
    with Elaborate.Elab_error (_, msg) ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("mentions " ^ frag) true (contains msg frag)
  in
  check_err "program p
var a : nat(1)[2]
init true
assign s: a := 0" "without an index";
  check_err "program p
var a : nat(1)[2]
init a = 0
assign s: a[0] := 0" "without an index";
  check_err "program p
var x : nat(1)
init true
assign s: x[0] := 0" "not an array";
  check_err "program p
var a : nat(1)[2][2]
init true
assign s: a[0] := 0" "nested arrays"

let suite =
  [
    Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer errors" `Quick test_lexer_error;
    Alcotest.test_case "parse figure 1" `Quick test_parse_figure1;
    Alcotest.test_case "precedence" `Quick test_parse_precedence;
    Alcotest.test_case "group knowledge" `Quick test_parse_group_knowledge;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "elaborate: standard program" `Quick test_elaborate_counter;
    Alcotest.test_case "elaborate: enum literals" `Quick test_elaborate_enum_literal;
    Alcotest.test_case "elaborate: figure 1 end-to-end" `Quick
      test_elaborate_figure1_end_to_end;
    Alcotest.test_case "elaborate: errors" `Quick test_elaborate_errors;
    Alcotest.test_case "expr against existing space" `Quick test_expr_against_existing_space;
    Alcotest.test_case "arrays: parse + roundtrip" `Quick test_array_parse_roundtrip;
    Alcotest.test_case "arrays: elaboration" `Quick test_array_elaborate;
    Alcotest.test_case "arrays: write semantics" `Quick test_array_write_semantics;
    Alcotest.test_case "arrays: errors" `Quick test_array_errors;
  ]

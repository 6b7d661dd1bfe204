open Kpt_predicate
open Kpt_unity

(* Tiny space: x, y in 0..3 and a boolean flag. *)
let space () =
  let sp = Space.create () in
  let x = Space.nat_var sp "x" ~max:3 in
  let y = Space.nat_var sp "y" ~max:3 in
  let f = Space.bool_var sp "f" in
  (sp, x, y, f)

let incr_stmt x =
  (* x := x + 1 if x < 3 — the paper's §4 example shape. *)
  Stmt.make ~name:"inc" ~guard:Expr.(var x <<< nat 3) [ (x, Expr.(var x +! nat 1)) ]

let test_make_validation () =
  let _, x, y, f = space () in
  (match Stmt.make ~name:"ok" [ (x, Expr.var y) ] with
  | _ -> ());
  Alcotest.check_raises "duplicate target"
    (Stmt.Ill_formed "statement dup: duplicate target x") (fun () ->
      ignore (Stmt.make ~name:"dup" [ (x, Expr.var y); (x, Expr.nat 0) ]));
  Alcotest.check_raises "sort mismatch"
    (Stmt.Ill_formed "statement bad: sort mismatch assigning to f") (fun () ->
      ignore (Stmt.make ~name:"bad" [ (f, Expr.var x) ]));
  Alcotest.check_raises "non-boolean guard"
    (Stmt.Ill_formed "statement badg: guard is not boolean") (fun () ->
      ignore (Stmt.make ~name:"badg" ~guard:(Expr.var x) [ (y, Expr.nat 0) ]))

let test_exec_guarded () =
  let sp, x, y, _ = space () in
  let s = incr_stmt x in
  let st = [| 2; 1; 0 |] in
  let st' = Stmt.exec sp s st in
  Alcotest.(check int) "x incremented" 3 st'.(Space.idx x);
  Alcotest.(check int) "y untouched" 1 st'.(Space.idx y);
  (* Guard false: skip. *)
  let st2 = Stmt.exec sp s [| 3; 1; 0 |] in
  Alcotest.(check int) "skip leaves x" 3 st2.(Space.idx x);
  (* exec does not mutate its argument *)
  Alcotest.(check int) "input untouched" 2 st.(Space.idx x)

let test_exec_simultaneous () =
  let sp, x, y, _ = space () in
  (* x, y := y, x — the classic simultaneous swap. *)
  let s = Stmt.make ~name:"swap" [ (x, Expr.var y); (y, Expr.var x) ] in
  let st' = Stmt.exec sp s [| 1; 2; 0 |] in
  Alcotest.(check int) "x gets old y" 2 st'.(Space.idx x);
  Alcotest.(check int) "y gets old x" 1 st'.(Space.idx y)

(* The transition relation must be deterministic and total on the domain,
   and agree pointwise with exec. *)
let test_trans_agrees_with_exec () =
  let sp, x, y, f = space () in
  let stmts =
    [
      incr_stmt x;
      Stmt.make ~name:"swap" [ (x, Expr.var y); (y, Expr.var x) ];
      Stmt.make ~name:"flag" ~guard:Expr.(var x === var y) [ (f, Expr.tru) ];
      Stmt.make ~name:"reset" ~guard:(Expr.var f) [ (x, Expr.nat 0); (f, Expr.fls) ];
    ]
  in
  List.iter
    (fun s ->
      Space.iter_states sp (fun st ->
          let expected = Stmt.exec sp s st in
          let image = Stmt.sp sp s (Space.pred_of_state sp st) in
          Alcotest.(check int)
            (Format.asprintf "deterministic image of %a" (Space.pp_state sp) st)
            1
            (Space.count_states_of sp image);
          Alcotest.(check bool) "image = exec" true (Space.holds_at sp image expected)))
    stmts

let test_sp_brute_force () =
  let sp, x, y, _ = space () in
  let s = Stmt.make ~name:"swap" [ (x, Expr.var y); (y, Expr.var x) ] in
  let st0 = Helpers.rng () in
  for _ = 1 to 20 do
    let p = Pred.random st0 sp in
    let symbolic = Stmt.sp sp s p in
    (* brute force: image of every p-state under exec *)
    let m = Space.manager sp in
    let brute = ref (Bdd.fls m) in
    Space.iter_states sp (fun st ->
        if Space.holds_at sp p st then
          brute := Bdd.or_ m !brute (Space.pred_of_state sp (Stmt.exec sp s st)));
    Alcotest.(check bool) "sp = brute-force image" true (Pred.equivalent sp symbolic !brute)
  done

let test_wp_galois () =
  (* [p ⇒ wp.s.q] iff [sp.s.p ⇒ q] — wp/sp adjunction for deterministic
     total statements. *)
  let sp, x, _, f = space () in
  let s = Stmt.make ~name:"t" ~guard:(Expr.var f) [ (x, Expr.nat 0) ] in
  let st0 = Helpers.rng () in
  for _ = 1 to 30 do
    let p = Pred.random st0 sp and q = Pred.random st0 sp in
    let lhs = Pred.holds_implies sp p (Stmt.wp sp s q) in
    let rhs = Pred.holds_implies sp (Stmt.sp sp s p) q in
    Alcotest.(check bool) "galois" lhs rhs
  done

let test_wp_concrete () =
  (* wp.s.q holds exactly at states whose successor satisfies q. *)
  let sp, x, y, _ = space () in
  let s = incr_stmt x in
  let st0 = Helpers.rng () in
  ignore y;
  for _ = 1 to 15 do
    let q = Pred.random st0 sp in
    let w = Stmt.wp sp s q in
    Space.iter_states sp (fun st ->
        let succ = Stmt.exec sp s st in
        Alcotest.(check bool)
          (Format.asprintf "wp at %a" (Space.pp_state sp) st)
          (Space.holds_at sp q succ) (Space.holds_at sp w st))
  done

(* A right-hand side that does not fit its target's bits leaves the
   statement no successor where the guard holds, so wp holds there
   vacuously: [n := n + 1] on [n : nat(3)] overflows two bits at n = 3
   only, [n := 7] everywhere. *)
let test_wp_overflowing_rhs () =
  let sp, x, _, _ = space () in
  let m = Space.manager sp in
  let at3 = Bitvec.eq_const m (Space.cur_vec sp x) 3 in
  let inc = Stmt.make ~name:"inc" [ (x, Expr.(var x +! nat 1)) ] in
  let seven = Stmt.make ~name:"seven" [ (x, Expr.nat 7) ] in
  Alcotest.(check bool) "wp.(x := x+1).false = (x = 3)" true
    (Bdd.equal (Stmt.wp sp inc (Bdd.fls m)) at3);
  Alcotest.(check bool) "wp.(x := 7).false = true" true
    (Bdd.is_true (Stmt.wp sp seven (Bdd.fls m)));
  List.iter
    (fun s ->
      let p = Pred.random (Helpers.rng ()) sp in
      Alcotest.(check bool)
        (Stmt.name s ^ ": wp = complement form")
        true
        (Bdd.equal (Stmt.wp sp s p) (Oracle_wp.complement sp s p)))
    [ inc; seven ]

let test_unchanged () =
  let sp, x, _, _ = space () in
  let s = incr_stmt x in
  let u = Stmt.unchanged sp s in
  Space.iter_states sp (fun st ->
      let succ = Stmt.exec sp s st in
      Alcotest.(check bool)
        (Format.asprintf "unchanged at %a" (Space.pp_state sp) st)
        (succ = st) (Space.holds_at sp u st));
  (* the frame-free form is the very BDD of the relational one, also on
     out-of-domain states and where a right-hand side overflows *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Stmt.name s ^ ": unchanged = ∃V'. T ∧ V' = V")
        true
        (Bdd.equal (Stmt.unchanged sp s) (Oracle_wp.unchanged sp s)))
    [
      s;
      Stmt.make ~name:"inc" [ (x, Expr.(var x +! nat 1)) ];
      Stmt.make ~name:"seven" [ (x, Expr.nat 7) ];
    ]

let test_totality_violation () =
  let sp, x, _, _ = space () in
  (* x := x + 1 unguarded overflows at x = 3. *)
  let s = Stmt.make ~name:"over" [ (x, Expr.(var x +! nat 1)) ] in
  let bad = Stmt.totality_violation sp s in
  Alcotest.(check int) "violations are the x=3 states" 8 (Space.count_states_of sp bad);
  let s' = incr_stmt x in
  Alcotest.(check bool) "guarded version is total" true
    (Bdd.is_false (Stmt.totality_violation sp s'))

let test_exec_out_of_range () =
  let sp, x, _, _ = space () in
  let s = Stmt.make ~name:"over" [ (x, Expr.(var x +! nat 1)) ] in
  Alcotest.check_raises "exec raises at x=3"
    (Stmt.Ill_formed "statement over drives x out of range (4)") (fun () ->
      ignore (Stmt.exec sp s [| 3; 0; 0 |]))

let test_guard_pred_replacement () =
  let sp, x, _, _ = space () in
  let m = Space.manager sp in
  let s = Stmt.make ~name:"g" ~guard:Expr.fls [ (x, Expr.nat 0) ] in
  Alcotest.(check bool) "expr guard" true (Bdd.is_false (Stmt.guard_pred sp s));
  let s' = Stmt.with_guard_pred s (Bdd.tru m) in
  Alcotest.(check bool) "pred guard" true (Bdd.is_true (Stmt.guard_pred sp s'));
  let st' = Stmt.exec sp s' [| 2; 0; 0 |] in
  Alcotest.(check int) "exec honours pred guard" 0 st'.(Space.idx x)

let test_array_write () =
  let sp = Space.create () in
  let arr = Array.init 3 (fun k -> Space.nat_var sp (Printf.sprintf "w%d" k) ~max:4) in
  let i = Space.nat_var sp "i" ~max:2 in
  let s = Stmt.make ~name:"store" (Stmt.array_write arr ~index:(Expr.var i) (Expr.nat 4)) in
  Space.iter_states sp (fun st ->
      let st' = Stmt.exec sp s st in
      for k = 0 to 2 do
        let expected = if k = st.(Space.idx i) then 4 else st.(Space.idx arr.(k)) in
        Alcotest.(check int) "array_write semantics" expected st'.(Space.idx arr.(k))
      done)

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "guarded exec" `Quick test_exec_guarded;
    Alcotest.test_case "simultaneous assignment" `Quick test_exec_simultaneous;
    Alcotest.test_case "trans agrees with exec" `Quick test_trans_agrees_with_exec;
    Alcotest.test_case "sp = brute-force image" `Quick test_sp_brute_force;
    Alcotest.test_case "wp/sp galois" `Quick test_wp_galois;
    Alcotest.test_case "wp pointwise" `Quick test_wp_concrete;
    Alcotest.test_case "wp where a rhs overflows its target" `Quick test_wp_overflowing_rhs;
    Alcotest.test_case "unchanged" `Quick test_unchanged;
    Alcotest.test_case "totality violation" `Quick test_totality_violation;
    Alcotest.test_case "exec out of range" `Quick test_exec_out_of_range;
    Alcotest.test_case "predicate guards" `Quick test_guard_pred_replacement;
    Alcotest.test_case "array write" `Quick test_array_write;
  ]

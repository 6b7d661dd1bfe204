open Kpt_predicate
open Kpt_unity
open Kpt_logic

let counter () =
  let sp = Space.create () in
  let x = Space.nat_var sp "x" ~max:3 in
  let b = Space.bool_var sp "noise" in
  let inc = Stmt.make ~name:"inc" ~guard:Expr.(var x <<< nat 3) [ (x, Expr.(var x +! nat 1)) ] in
  let noise = Stmt.make ~name:"noise" [ (b, Expr.(not_ (var b))) ] in
  let prog =
    Program.make sp ~name:"counter" ~init:Expr.(var x === nat 0 &&& not_ (var b)) [ inc; noise ]
  in
  (sp, x, prog)

let toggles () =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let y = Space.bool_var sp "y" in
  let tx = Stmt.make ~name:"tx" [ (x, Expr.(not_ (var x))) ] in
  let ty = Stmt.make ~name:"ty" [ (y, Expr.(not_ (var y))) ] in
  let prog =
    Program.make sp ~name:"toggles" ~init:Expr.(not_ (var x) &&& not_ (var y)) [ tx; ty ]
  in
  (sp, x, y, prog)

let bp sp e = Expr.compile_bool sp e

let test_pre () =
  let sp, x, prog = counter () in
  let at k = bp sp Expr.(var x === nat k) in
  let p = Program.pre prog (at 2) in
  (* predecessors of x=2: x=1 (inc) and x=2 itself (noise, or skipped inc) *)
  Space.iter_states sp (fun st ->
      let xv = st.(Space.idx x) in
      Alcotest.(check bool) "pre pointwise" (xv = 1 || xv = 2) (Space.holds_at sp p st))

let test_ef_is_forward_reach_dual () =
  (* EF init over the REVERSED direction matches SI: x ∈ SI iff init can
     reach x, iff x ∈ EF⁻¹… here instead check: SI ⊆ EF(fixed points) in
     the counter (everything can finish), and EF(x=3) = everything. *)
  let sp, x, prog = counter () in
  let at k = bp sp Expr.(var x === nat k) in
  Alcotest.(check bool) "EF(x=3) covers the space" true (Pred.valid sp (Ctl.ef prog (at 3)));
  (* EF(x=0) only contains x=0 states: the counter never decreases *)
  let ef0 = Ctl.ef prog (at 0) in
  Space.iter_states sp (fun st ->
      Alcotest.(check bool) "EF(x=0) pointwise" (st.(Space.idx x) = 0)
        (Space.holds_at sp ef0 st))

let test_ag_invariant_correspondence () =
  let sp, x, prog = counter () in
  let st0 = Helpers.rng () in
  for _ = 1 to 15 do
    let p = Pred.random st0 sp in
    let lhs = Program.invariant prog p in
    let rhs = Pred.holds_implies sp (Program.init prog) (Ctl.ag prog p) in
    Alcotest.(check bool) "invariant p ⟺ init ⇒ AG p" lhs rhs
  done;
  ignore x

let test_af_fair_leadsto_correspondence () =
  let sp, _, prog = counter () in
  let m = Space.manager sp in
  let st0 = Helpers.rng () in
  for _ = 1 to 10 do
    let p = Pred.random st0 sp and q = Pred.random st0 sp in
    let lhs = Props.leads_to prog p q in
    let rhs =
      Bdd.implies m (Bdd.conj m [ Program.si prog; p ]) (Ctl.af_fair prog q)
    in
    Alcotest.(check bool) "p ↦ q ⟺ SI ∧ p ⇒ AF_fair q" lhs rhs
  done

let test_eg_fair () =
  let sp, x, y, prog = toggles () in
  (* a fair run can stay in ¬(x∧y) forever *)
  let not_both = bp sp Expr.(not_ (var x &&& var y)) in
  let eg = Ctl.eg_fair prog not_both in
  Alcotest.(check int) "three states can stay" 3 (Space.count_states_of sp eg);
  (* but nothing can stay in x∧y forever (first toggle leaves it) *)
  let both = bp sp Expr.(var x &&& var y) in
  Alcotest.(check int) "no state can stay in x∧y" 0
    (Space.count_states_of sp (Ctl.eg_fair prog both));
  ignore y

let test_duality () =
  let sp, _, prog = counter () in
  let m = Space.manager sp in
  let st0 = Helpers.rng () in
  for _ = 1 to 10 do
    let q = Pred.random st0 sp in
    (* AG q = ¬EF ¬q on the domain *)
    let lhs = Ctl.ag prog q in
    let rhs = Bdd.and_ m (Space.domain sp) (Bdd.not_ m (Ctl.ef prog (Bdd.not_ m q))) in
    Alcotest.(check bool) "AG/EF duality" true (Pred.equivalent sp lhs rhs);
    (* AF_fair q and EG_fair ¬q partition the reachable states *)
    let af = Ctl.af_fair prog q and eg = Ctl.eg_fair prog (Bdd.not_ m q) in
    Alcotest.(check bool) "AF/EG partition SI" true
      (Pred.equivalent sp (Bdd.or_ m af eg) (Program.si prog)
      && Bdd.is_false (Bdd.and_ m af eg))
  done

let suite =
  [
    Alcotest.test_case "preimage" `Quick test_pre;
    Alcotest.test_case "EF" `Quick test_ef_is_forward_reach_dual;
    Alcotest.test_case "AG ⟺ invariant" `Quick test_ag_invariant_correspondence;
    Alcotest.test_case "AF_fair ⟺ leads-to" `Quick test_af_fair_leadsto_correspondence;
    Alcotest.test_case "EG_fair" `Quick test_eg_fair;
    Alcotest.test_case "dualities" `Quick test_duality;
  ]

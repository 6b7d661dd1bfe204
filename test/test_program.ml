open Kpt_predicate
open Kpt_unity

(* The paper's §5 example: nondeterministic bubble sort
   ⟨ □ i : 0 ≤ i < n : x[i], x[i+1] := x[i+1], x[i] if x[i] > x[i+1] ⟩
   reaching a fixed point when the array is sorted. *)
let bubble_sort n maxv =
  let sp = Space.create () in
  let arr = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:maxv) in
  let stmts =
    List.init (n - 1) (fun i ->
        Stmt.make
          ~name:(Printf.sprintf "swap%d" i)
          ~guard:Expr.(var arr.(i) >>> var arr.(i + 1))
          [ (arr.(i), Expr.var arr.(i + 1)); (arr.(i + 1), Expr.var arr.(i)) ])
  in
  (sp, arr, stmts)

let test_make_validation () =
  let sp, _, _ = bubble_sort 3 2 in
  Alcotest.check_raises "empty statements"
    (Program.Ill_formed "program empty: empty statement list") (fun () ->
      ignore (Program.make sp ~name:"empty" ~init:Expr.tru []));
  let x0 = Space.find sp "x0" in
  let bad = Stmt.make ~name:"over" [ (x0, Expr.(var x0 +! nat 1)) ] in
  (try
     ignore (Program.make sp ~name:"p" ~init:Expr.tru [ bad ]);
     Alcotest.fail "expected totality rejection"
   with Program.Ill_formed msg ->
     Alcotest.(check bool) "totality message" true
       (String.length msg > 0 && String.sub msg 0 9 = "program p"));
  let ok = Stmt.make ~name:"noop" [ (x0, Expr.var x0) ] in
  Alcotest.check_raises "unsat init"
    (Program.Ill_formed "program q: unsatisfiable initial condition") (fun () ->
      ignore (Program.make sp ~name:"q" ~init:Expr.fls [ ok ]))

(* The non-totality witness is found symbolically: [var n : nat(3)] with
   [s: n := 7] beside 40 unused booleans is a 2^42-state space, which a
   walk over the states could never finish.  The witness is the first
   state in enumeration order, as [examples/malformed/non_total.unity]
   reports it. *)
let test_non_total_witness_is_symbolic () =
  let sp = Space.create () in
  let n = Space.nat_var sp "n" ~max:3 in
  let _ = List.init 40 (fun i -> Space.bool_var sp (Printf.sprintf "b%d" i)) in
  let s = Stmt.make ~name:"s" [ (n, Expr.nat 7) ] in
  let t0 = Kpt_obs.now_ns () in
  (match Program.make sp ~name:"non_total" ~init:Expr.(var n === nat 0) [ s ] with
  | _ -> Alcotest.fail "expected totality rejection"
  | exception Program.Ill_formed msg ->
      let expected =
        "program non_total: statement s is not total at ⟨n=0"
        ^ String.concat "" (List.init 40 (fun i -> Printf.sprintf " b%d=false" i))
        ^ "⟩"
      in
      Alcotest.(check string) "witness is the first state" expected msg);
  let elapsed = Int64.to_float (Int64.sub (Kpt_obs.now_ns ()) t0) /. 1e9 in
  Alcotest.(check bool) (Printf.sprintf "found in %.2fs (< 1 s)" elapsed) true (elapsed < 1.0)

let test_bubble_sort_si () =
  let sp, arr, stmts = bubble_sort 3 2 in
  (* Start from the specific array [2; 1; 0]. *)
  let init =
    Expr.conj (List.init 3 (fun k -> Expr.(var arr.(k) === nat (2 - k))))
  in
  let prog = Program.make sp ~name:"bsort" ~init stmts in
  let si = Program.si prog in
  (* Reachable states are exactly the permutations of {0,1,2}: swapping
     preserves the multiset. *)
  let reachable = Space.states_of sp si in
  (* From [2;1;0] adjacent swaps reach every permutation of {0,1,2}. *)
  Alcotest.(check int) "all six permutations reachable" 6 (List.length reachable);
  List.iter
    (fun st ->
      let values = List.sort compare (Array.to_list (Array.sub st 0 3)) in
      Alcotest.(check (list int)) "permutation of 0,1,2" [ 0; 1; 2 ] values)
    reachable

let test_bubble_sort_fixed_point () =
  let sp, arr, stmts = bubble_sort 3 2 in
  let init = Expr.conj (List.init 3 (fun k -> Expr.(var arr.(k) === nat (2 - k)))) in
  let prog = Program.make sp ~name:"bsort" ~init stmts in
  let m = Space.manager sp in
  let fp = Program.fixed_points prog in
  (* Fixed points of the program are exactly the sorted arrays. *)
  let sorted =
    Bdd.and_ m
      (Expr.compile_bool sp Expr.(var arr.(0) <== var arr.(1)))
      (Expr.compile_bool sp Expr.(var arr.(1) <== var arr.(2)))
  in
  Alcotest.(check bool) "fixed points = sorted" true (Pred.equivalent sp fp sorted);
  (* The sorted permutation of the initial array is reachable. *)
  let target = Expr.conj (List.init 3 (fun k -> Expr.(var arr.(k) === nat k))) in
  let target_p = Expr.compile_bool sp target in
  Alcotest.(check bool) "sorted state reachable" false
    (Bdd.is_false (Bdd.and_ m (Program.si prog) target_p))

let test_sp_pred_is_union () =
  let sp, _, stmts = bubble_sort 3 2 in
  let prog = Program.make sp ~name:"bsort" ~init:Expr.tru stmts in
  let st0 = Helpers.rng () in
  let m = Space.manager sp in
  for _ = 1 to 10 do
    let p = Pred.random st0 sp in
    let union =
      List.fold_left (fun acc s -> Bdd.or_ m acc (Stmt.sp sp s p)) (Bdd.fls m) stmts
    in
    Alcotest.(check bool) "SP = ∨ sp.s" true (Pred.equivalent sp (Program.sp_pred prog p) union)
  done

let test_stable () =
  let sp, arr, stmts = bubble_sort 3 2 in
  let prog = Program.make sp ~name:"bsort" ~init:Expr.tru stmts in
  (* "x0 is the minimum" is stable under bubble sort once x0 ≤ x1 ∧ x0 ≤ x2. *)
  let minp =
    Expr.compile_bool sp Expr.((var arr.(0) <== var arr.(1)) &&& (var arr.(0) <== var arr.(2)))
  in
  Alcotest.(check bool) "min-at-0 stable" true (Program.stable prog minp);
  let eq0 = Expr.compile_bool sp Expr.(var arr.(0) === nat 2) in
  Alcotest.(check bool) "x0=2 not stable" false (Program.stable prog eq0)

(* sst properties (eqs. 2–4): existence/uniqueness come from the fixpoint;
   check p ⇒ sst.p, stability of sst.p, strength (sst.p is contained in any
   stable q weaker than p), and monotonicity — for standard programs. *)
let test_sst_properties () =
  let sp, _, stmts = bubble_sort 3 2 in
  let prog = Program.make sp ~name:"bsort" ~init:Expr.tru stmts in
  let st0 = Helpers.rng () in
  let m = Space.manager sp in
  for _ = 1 to 15 do
    let p = Pred.random st0 sp in
    let s = Program.sst prog p in
    Alcotest.(check bool) "p ⇒ sst.p" true (Pred.holds_implies sp p s);
    Alcotest.(check bool) "sst.p stable" true (Program.stable prog s);
    (* minimality against a random stable superset *)
    let q = Bdd.or_ m p (Pred.random st0 sp) in
    let qs = Program.sst prog q in
    Alcotest.(check bool) "sst monotone (eq. 4)" true (Pred.holds_implies sp s qs)
  done

let test_si_invariant () =
  let sp, arr, stmts = bubble_sort 3 2 in
  let init = Expr.conj (List.init 3 (fun k -> Expr.(var arr.(k) === nat (2 - k)))) in
  let prog = Program.make sp ~name:"bsort" ~init stmts in
  (* multiset preservation as an invariant: the count of each value is 1 *)
  let perm =
    Expr.conj
      (List.init 3 (fun v ->
           Expr.disj
             (List.init 3 (fun k -> Expr.(var arr.(k) === nat v)))))
  in
  Alcotest.(check bool) "invariant permutation" true
    (Program.invariant prog (Expr.compile_bool sp perm));
  Alcotest.(check bool) "x0=0 not invariant" false
    (Program.invariant prog (Expr.compile_bool sp Expr.(var arr.(0) === nat 0)));
  (* init ⇒ SI and SI stable *)
  Alcotest.(check bool) "init ⇒ SI" true (Pred.holds_implies sp (Program.init prog) (Program.si prog));
  Alcotest.(check bool) "SI stable" true (Program.stable prog (Program.si prog))

(* [Program.sst] (chained) and the frontier oracle both reach the least
   fixpoint of the full-set Kleene iteration, and BDDs are canonical, so
   all three results must be the identical node. *)
let test_frontier_sst_equals_naive () =
  let sp, _, stmts = bubble_sort 3 2 in
  let prog = Program.make sp ~name:"bsort" ~init:Expr.tru stmts in
  let st0 = Helpers.rng () in
  let m = Space.manager sp in
  let agree p =
    let naive = Oracle_sst.naive prog p in
    Bdd.equal (Oracle_sst.frontier prog p) naive && Bdd.equal (Program.sst prog p) naive
  in
  Alcotest.(check bool) "sst false" true (agree (Bdd.fls m));
  for _ = 1 to 20 do
    Alcotest.(check bool) "frontier sst = chained sst = full-set Kleene sst" true
      (agree (Pred.random st0 sp))
  done

(* Chained [sst] against the frontier oracle on the programs the
   benchmark exercises: SI of the ten section-6 protocols, and of one
   generated spec per corpus family and size 1-4 (a KBP family's
   knowledge guards instantiated over the whole domain). *)
let test_chained_sst_equals_frontier () =
  let check name prog =
    let init = Program.init prog in
    Alcotest.(check bool)
      (Printf.sprintf "%s: chained sst = frontier sst" name)
      true
      (Bdd.equal (Program.sst prog init) (Oracle_sst.frontier prog init))
  in
  List.iter
    (fun (name, { Kpt_protocols.Builtin.prog; _ }) -> check name prog)
    (Helpers.section6_programs ());
  List.iter
    (fun (fam : Kpt_gen.Family.t) ->
      for size = 1 to 4 do
        let built = fam.build ~n:size (Kpt_gen.Rng.of_int size) in
        let sp, k = Kpt_syntax.Elaborate.program built.Kpt_gen.Family.ast in
        let prog =
          if Kpt_core.Kbp.is_standard k then Kpt_core.Kbp.to_standard_program k
          else Kpt_core.Kbp.instantiate k ~si:(Space.domain sp)
        in
        check (Printf.sprintf "%s n=%d" fam.name size) prog
      done)
    Kpt_gen.Family.all

(* One chained round consumes one fuel unit, so a tank one short of the
   round count runs dry and an exact one does not. *)
let test_sst_fuel () =
  let sp, arr, stmts = bubble_sort 4 3 in
  let init = Expr.conj (List.init 4 (fun k -> Expr.(var arr.(k) === nat (3 - k)))) in
  let prog = Program.make sp ~name:"bsort" ~init stmts in
  let p = Program.init prog in
  let iters = Kpt_obs.counter "sst.iterations" in
  let before = Kpt_obs.value iters in
  let x = Program.sst prog p in
  let rounds = Kpt_obs.value iters - before in
  Alcotest.(check bool) (Printf.sprintf "several rounds (%d)" rounds) true (rounds >= 2);
  let with_fuel fuel = Engine.with_budget (Budget.limits ~fuel ()) (fun () -> Program.sst prog p) in
  Alcotest.(check bool) "exact fuel suffices" true (Bdd.equal x (with_fuel rounds));
  match with_fuel (rounds - 1) with
  | _ -> Alcotest.fail "sst finished on less fuel than it has rounds"
  | exception Budget.Exhausted (Budget.Fuel_exhausted _) -> ()

(* The compiled statement caches (guard, update schedule, overflow set)
   must be invisible: a statement's sp/wp agree with a freshly built
   identical statement's on repeated calls, and a [with_guard_pred] copy,
   which shares the guard-independent part and recompiles the guard,
   agrees with a fresh copy under the same guard while the original keeps
   its own guard. *)
let test_stmt_cache () =
  let sp, arr, stmts = bubble_sort 3 2 in
  let fresh =
    List.init 2 (fun i ->
        Stmt.make
          ~name:(Printf.sprintf "swap%d'" i)
          ~guard:Expr.(var arr.(i) >>> var arr.(i + 1))
          [ (arr.(i), Expr.var arr.(i + 1)); (arr.(i + 1), Expr.var arr.(i)) ])
  in
  let g = Expr.compile_bool sp Expr.(var arr.(0) === nat 0) in
  let st0 = Helpers.rng () in
  let agree label s f =
    for _ = 1 to 8 do
      let p = Pred.random st0 sp in
      Alcotest.(check bool) (label ^ ": sp") true (Bdd.equal (Stmt.sp sp s p) (Stmt.sp sp f p));
      Alcotest.(check bool) (label ^ ": wp") true (Bdd.equal (Stmt.wp sp s p) (Stmt.wp sp f p))
    done
  in
  List.iter2
    (fun s f ->
      agree "cached = fresh" s f;
      agree "cached again = fresh" s f;
      agree "with_guard_pred: cached = fresh" (Stmt.with_guard_pred s g) (Stmt.with_guard_pred f g);
      agree "original after with_guard_pred = fresh" s f)
    stmts fresh

let test_find_process () =
  let sp, arr, stmts = bubble_sort 3 2 in
  let pr = Process.make "sorter" [ arr.(0); arr.(1) ] in
  let prog = Program.make sp ~name:"bsort" ~init:Expr.tru ~processes:[ pr ] stmts in
  Alcotest.(check string) "find_process" "sorter" (Process.name (Program.find_process prog "sorter"));
  Alcotest.(check bool) "can_access" true (Process.can_access pr arr.(0));
  Alcotest.(check bool) "cannot access" false (Process.can_access pr arr.(2))

let test_pp_smoke () =
  let sp, _, stmts = bubble_sort 3 2 in
  let prog = Program.make sp ~name:"bsort" ~init:Expr.tru stmts in
  let s = Format.asprintf "%a" Program.pp prog in
  Alcotest.(check bool) "pp nonempty" true (String.length s > 20)

(* the Chandy–Misra union theorem, semantically *)
let test_union_theorem () =
  let sp = Space.create () in
  let x = Space.nat_var sp "x" ~max:3 in
  let y = Space.nat_var sp "y" ~max:3 in
  let f =
    Program.make sp ~name:"F" ~init:Expr.(var x === nat 0)
      [ Stmt.make ~name:"fx" ~guard:Expr.(var x <<< nat 3) [ (x, Expr.(var x +! nat 1)) ] ]
  in
  let g =
    Program.make sp ~name:"G" ~init:Expr.(var y === nat 0)
      [ Stmt.make ~name:"gy" ~guard:Expr.(var y <<< nat 3) [ (y, Expr.(var y +! nat 1)) ] ]
  in
  let fg = Program.union f g in
  Alcotest.(check int) "statements unioned" 2 (List.length (Program.statements fg));
  Alcotest.(check bool) "init conjoined" true
    (Pred.equivalent sp (Program.init fg)
       (Expr.compile_bool sp Expr.(var x === nat 0 &&& (var y === nat 0))));
  (* union theorem: unless in F∥G iff unless in F and in G — over SI of the
     union, so relativise via the union's reachable states.  We check the
     classical formulation on predicates over the union's SI. *)
  let st = Helpers.rng () in
  let m = Space.manager sp in
  for _ = 1 to 10 do
    let p = Pred.random st sp and q = Pred.random st sp in
    (* restrict attention to the union's invariant so all three checkers
       quantify over the same worlds *)
    let si = Program.si fg in
    let p = Bdd.and_ m p si and q = Bdd.and_ m q si in
    let in_union = Kpt_logic.Props.unless fg p q in
    (* Chandy–Misra state the theorem with SI-free unless; our checkers use
       each program's own SI, which is weaker for F and G, so the union
       theorem direction that is unconditionally valid semantically is:
       unless in both (w.r.t. their SIs ⊇ union SI) ⇒ unless in union. *)
    let in_f = Kpt_logic.Props.unless f p q in
    let in_g = Kpt_logic.Props.unless g p q in
    if in_f && in_g then
      Alcotest.(check bool) "unless compositional (⇐)" true in_union
  done;
  (* and a concrete instance of the interesting direction *)
  let p = Expr.compile_bool sp Expr.(var x === nat 1) in
  let q = Expr.compile_bool sp Expr.(var x === nat 2) in
  Alcotest.(check bool) "x=1 unless x=2 in F" true (Kpt_logic.Props.unless f p q);
  Alcotest.(check bool) "x=1 unless x=2 in G (x untouched)" true (Kpt_logic.Props.unless g p q);
  Alcotest.(check bool) "x=1 unless x=2 in F∥G" true (Kpt_logic.Props.unless fg p q)

let test_union_validation () =
  let sp1 = Space.create () in
  let x1 = Space.nat_var sp1 "x" ~max:1 in
  let sp2 = Space.create () in
  let x2 = Space.nat_var sp2 "x" ~max:1 in
  let f =
    Program.make sp1 ~name:"F" ~init:Expr.tru
      [ Stmt.make ~name:"s" [ (x1, Expr.var x1) ] ]
  in
  let g =
    Program.make sp2 ~name:"G" ~init:Expr.tru
      [ Stmt.make ~name:"s" [ (x2, Expr.var x2) ] ]
  in
  Alcotest.check_raises "different spaces rejected"
    (Program.Ill_formed "union: F and G live in different spaces") (fun () ->
      ignore (Program.union f g))

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "non-totality witness on a 2^42-state space" `Quick
      test_non_total_witness_is_symbolic;
    Alcotest.test_case "bubble sort SI" `Quick test_bubble_sort_si;
    Alcotest.test_case "bubble sort fixed points" `Quick test_bubble_sort_fixed_point;
    Alcotest.test_case "SP is union of sp" `Quick test_sp_pred_is_union;
    Alcotest.test_case "stable" `Quick test_stable;
    Alcotest.test_case "sst properties (eqs. 2-4)" `Quick test_sst_properties;
    Alcotest.test_case "SI and invariants" `Quick test_si_invariant;
    Alcotest.test_case "frontier sst = naive sst" `Quick test_frontier_sst_equals_naive;
    Alcotest.test_case "chained sst = frontier sst on protocols and corpus families" `Quick
      test_chained_sst_equals_frontier;
    Alcotest.test_case "sst consumes one fuel unit per round" `Quick test_sst_fuel;
    Alcotest.test_case "statement cache: sp/wp" `Quick test_stmt_cache;
    Alcotest.test_case "processes" `Quick test_find_process;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    Alcotest.test_case "union theorem" `Quick test_union_theorem;
    Alcotest.test_case "union validation" `Quick test_union_validation;
  ]

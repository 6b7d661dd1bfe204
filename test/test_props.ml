open Kpt_predicate
open Kpt_unity
open Kpt_logic

(* Counter: x in 0..3, one incrementing statement plus a no-op.  Fairness
   forces progress despite the no-op. *)
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

(* Two independent toggles: a fair schedule can avoid x ∧ y forever. *)
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

let test_unless () =
  let sp, x, prog = counter () in
  let at k = bp sp Expr.(var x === nat k) in
  Alcotest.(check bool) "x=1 unless x=2" true (Props.unless prog (at 1) (at 2));
  Alcotest.(check bool) "x=1 unless x=3 fails (goes through 2)" false
    (Props.unless prog (at 1) (at 3));
  Alcotest.(check bool) "x≤2 unless x=3" true
    (Props.unless prog (bp sp Expr.(var x <== nat 2)) (at 3));
  Alcotest.(check bool) "x=3 stable" true (Props.stable prog (at 3));
  Alcotest.(check bool) "x=1 not stable" false (Props.stable prog (at 1))

let test_unless_vacuous () =
  let sp, x, prog = counter () in
  let m = Space.manager sp in
  (* p unless q holds vacuously when p unreachable; also p unless p-ish *)
  Alcotest.(check bool) "false unless anything" true (Props.unless prog (Bdd.fls m) (Bdd.fls m));
  Alcotest.(check bool) "anything unless true" true
    (Props.unless prog (bp sp Expr.(var x === nat 1)) (Bdd.tru m))

let test_ensures () =
  let sp, x, prog = counter () in
  let at k = bp sp Expr.(var x === nat k) in
  Alcotest.(check bool) "x=1 ensures x=2" true (Props.ensures prog (at 1) (at 2));
  Alcotest.(check bool) "x=3 ensures x=0 fails" false (Props.ensures prog (at 3) (at 0));
  (* unless holds but no statement establishes q: x=1 ensures x=2 ∧ noise-free?
     q = x=2 ∧ noise=false is not established by inc alone from every x=1
     state (noise may be true), so ensures must fail. *)
  let q = bp sp Expr.(var x === nat 2 &&& not_ (var (Space.find sp "noise"))) in
  Alcotest.(check bool) "conditional q fails ensures" false (Props.ensures prog (at 1) q)

let test_invariant () =
  let sp, x, prog = counter () in
  Alcotest.(check bool) "x ≤ 3 invariant" true (Props.invariant prog (bp sp Expr.(var x <== nat 3)));
  Alcotest.(check bool) "x = 0 not invariant" false (Props.invariant prog (bp sp Expr.(var x === nat 0)))

let test_leads_to_progress () =
  let sp, x, prog = counter () in
  let at k = bp sp Expr.(var x === nat k) in
  let m = Space.manager sp in
  Alcotest.(check bool) "x=0 ↦ x=3" true (Props.leads_to prog (at 0) (at 3));
  Alcotest.(check bool) "true ↦ x=3" true (Props.leads_to prog (Bdd.tru m) (at 3));
  Alcotest.(check bool) "x=0 ↦ x=1" true (Props.leads_to prog (at 0) (at 1));
  (* q already implied: trivial *)
  Alcotest.(check bool) "x=2 ↦ x≥1" true
    (Props.leads_to prog (at 2) (bp sp Expr.(var x >== nat 1)))

let test_leads_to_avoidable () =
  let sp, x, y, prog = toggles () in
  let m = Space.manager sp in
  let both = bp sp Expr.(var x &&& var y) in
  let either = bp sp Expr.(var x ||| var y) in
  Alcotest.(check bool) "true ↦ x∧y fails (fair avoidance)" false
    (Props.leads_to prog (Bdd.tru m) both);
  Alcotest.(check bool) "¬x∧¬y ↦ x∨y holds (first step leaves origin)" true
    (Props.leads_to prog (bp sp Expr.(not_ (var x) &&& not_ (var y))) either);
  ignore y

let test_leads_to_unreachable_antecedent () =
  let sp, x, prog = counter () in
  let m = Space.manager sp in
  (* p unreachable: holds vacuously even for q = false *)
  let unreachable = bp sp Expr.(var x >== nat 5) in
  Alcotest.(check bool) "vacuous leads-to" true (Props.leads_to prog unreachable (Bdd.fls m));
  Alcotest.(check bool) "reachable ↦ false fails" false
    (Props.leads_to prog (bp sp Expr.(var x === nat 0)) (Bdd.fls m))

let test_fair_avoid_sets () =
  let sp, x, y, prog = toggles () in
  let both = bp sp Expr.(var x &&& var y) in
  let danger = Props.fair_avoid prog both in
  (* All three ¬(x∧y) states can fairly avoid x∧y (toggle back and forth). *)
  Alcotest.(check int) "three avoiding states" 3 (Space.count_states_of sp danger);
  ignore (x, y);
  (* In the counter, nothing avoids x=3. *)
  let sp2, x2, prog2 = counter () in
  let danger2 = Props.fair_avoid prog2 (bp sp2 Expr.(var x2 === nat 3)) in
  Alcotest.(check int) "counter cannot avoid completion" 0 (Space.count_states_of sp2 danger2)

let test_holds_dispatch () =
  let sp, x, prog = counter () in
  let at k = bp sp Expr.(var x === nat k) in
  let m = Space.manager sp in
  Alcotest.(check bool) "Invariant" true (Props.holds prog (Props.Invariant (bp sp Expr.(var x <== nat 3))));
  Alcotest.(check bool) "Stable" true (Props.holds prog (Props.Stable (at 3)));
  Alcotest.(check bool) "Unless" true (Props.holds prog (Props.Unless (at 1, at 2)));
  Alcotest.(check bool) "Ensures" true (Props.holds prog (Props.Ensures (at 1, at 2)));
  Alcotest.(check bool) "Leadsto" true (Props.holds prog (Props.Leadsto (Bdd.tru m, at 3)))

(* unless/ensures/leads-to consistency on random predicates: ensures ⊆
   leads-to; leads-to reflexive on q ⊇ p; and the UNITY implication
   p ⇒ q gives p ↦ q. *)
let test_consistency_random () =
  let sp, _, prog = counter () in
  let m = Space.manager sp in
  let st = Helpers.rng () in
  for _ = 1 to 12 do
    let p = Pred.random st sp and q = Pred.random st sp in
    if Props.ensures prog p q then
      Alcotest.(check bool) "ensures implies leads-to" true (Props.leads_to prog p q);
    Alcotest.(check bool) "p ↦ p∨q" true (Props.leads_to prog p (Bdd.or_ m p q))
  done

let test_wlt () =
  let sp, x, prog = counter () in
  let m = Space.manager sp in
  let at k = bp sp Expr.(var x === nat k) in
  let st = Helpers.rng () in
  (* characterisation: p ↦ q iff [SI ∧ p ⇒ wlt q] *)
  for _ = 1 to 10 do
    let p = Pred.random st sp and q = Pred.random st sp in
    let lhs = Props.leads_to prog p q in
    let rhs =
      Bdd.implies m (Bdd.conj m [ Kpt_unity.Program.si prog; p ]) (Props.wlt prog q)
    in
    Alcotest.(check bool) "wlt characterises leads-to" lhs rhs
  done;
  (* q ⇒ wlt q, and in the counter everything leads to x=3 *)
  Alcotest.(check bool) "q ⇒ wlt q" true (Pred.holds_implies sp (at 3) (Props.wlt prog (at 3)));
  Alcotest.(check bool) "wlt (x=3) covers SI" true
    (Bdd.implies m (Kpt_unity.Program.si prog) (Props.wlt prog (at 3)));
  (* in the toggles, wlt (x∧y) excludes the avoiding states *)
  let sp2, x2, y2, prog2 = toggles () in
  let both = bp sp2 Expr.(var x2 &&& var y2) in
  let w = Props.wlt prog2 both in
  Alcotest.(check bool) "toggles: origin cannot be forced to x∧y" false
    (Space.holds_at sp2 w [| 0; 0 |]);
  Alcotest.(check bool) "toggles: x∧y itself is in wlt" true (Space.holds_at sp2 w [| 1; 1 |])

let test_counterexamples () =
  let sp, x, prog = counter () in
  let at k = bp sp Expr.(var x === nat k) in
  (* a violated invariant yields a reachable witness *)
  (match Props.invariant_counterexample prog (at 0) with
  | Some st ->
      Alcotest.(check bool) "witness violates" false (Space.holds_at sp (at 0) st);
      Alcotest.(check bool) "witness reachable" true
        (Space.holds_at sp (Kpt_unity.Program.si prog) st)
  | None -> Alcotest.fail "expected an invariant counterexample");
  Alcotest.(check bool) "valid invariant has none" true
    (Props.invariant_counterexample prog (bp sp Expr.(var x <== nat 3)) = None);
  (* unless violation: x=1 unless x=3 breaks via inc at x=1 *)
  (match Props.unless_counterexample prog (at 1) (at 3) with
  | Some (st, name, st') ->
      Alcotest.(check string) "offending statement" "inc" name;
      Alcotest.(check int) "from x=1" 1 st.(Space.idx x);
      Alcotest.(check int) "to x=2" 2 st'.(Space.idx x)
  | None -> Alcotest.fail "expected an unless counterexample");
  Alcotest.(check bool) "valid unless has none" true
    (Props.unless_counterexample prog (at 1) (at 2) = None);
  (* leads-to: toggles can avoid x∧y from any ¬(x∧y) state *)
  let sp2, x2, y2, prog2 = toggles () in
  let both = bp sp2 Expr.(var x2 &&& var y2) in
  (match Props.leads_to_counterexample prog2 (Bdd.tru (Space.manager sp2)) both with
  | Some st ->
      Alcotest.(check bool) "witness avoids q" false (Space.holds_at sp2 both st);
      ignore y2
  | None -> Alcotest.fail "expected a leads-to counterexample");
  Alcotest.(check bool) "valid leads-to has none" true
    (Props.leads_to_counterexample prog (at 0) (at 3) = None)

(* A 2^30-state product space around a two-state SI: one statement sets
   [x0], every other variable stays false. *)
let wide () =
  let sp = Space.create () in
  let xs = List.init 30 (fun i -> Space.bool_var sp (Printf.sprintf "x%d" i)) in
  let x0 = List.hd xs in
  let flip = Stmt.make ~name:"flip" ~guard:Expr.(not_ (var x0)) [ (x0, Expr.tru) ] in
  let init = List.fold_left (fun acc x -> Expr.(acc &&& not_ (var x))) Expr.tru xs in
  (sp, x0, Program.make sp ~name:"wide" ~init [ flip ])

let seconds_since t0 = Int64.to_float (Int64.sub (Kpt_obs.now_ns ()) t0) /. 1e9

(* The explicit walk over the whole product space ([Space.iter_states])
   must stop at an armed deadline rather than wait minutes for the walk
   to end. *)
let test_state_enumeration_honours_deadline () =
  let sp, _, _ = wide () in
  let limits = Budget.limits ~timeout_ns:(Budget.timeout_of_seconds 0.1) () in
  let t0 = Kpt_obs.now_ns () in
  (match Engine.with_budget limits (fun () -> Space.iter_states sp ignore) with
  | () -> Alcotest.fail "enumerating 2^30 states finished inside a 0.1 s deadline"
  | exception Budget.Exhausted (Budget.Timeout _) -> ());
  let elapsed = seconds_since t0 in
  Alcotest.(check bool)
    (Printf.sprintf "the deadline interrupted the walk (%.2fs)" elapsed)
    true (elapsed < 5.0)

(* [Space.states_of] walks only the states it returns: the two states of
   SI come out of the 2^30 space at once. *)
let test_states_of_is_output_sensitive () =
  let sp, _, prog = wide () in
  let t0 = Kpt_obs.now_ns () in
  let states = Space.states_of sp (Program.si prog) in
  let elapsed = seconds_since t0 in
  Alcotest.(check (list (list int))) "the two states of SI, x0 false first"
    [ List.init 30 (fun _ -> 0); 1 :: List.init 29 (fun _ -> 0) ]
    (List.map Array.to_list states);
  Alcotest.(check bool) (Printf.sprintf "no walk over the space (%.2fs)" elapsed) true
    (elapsed < 1.0)

(* Fair leads-to never enumerates: on the same 2^30 space it costs what
   the BDDs of SI and q cost. *)
let test_wide_leads_to_is_symbolic () =
  let sp, x0, prog = wide () in
  let t0 = Kpt_obs.now_ns () in
  Alcotest.(check bool) "true ↦ x0" true
    (Props.leads_to prog (Bdd.tru (Space.manager sp)) (bp sp (Expr.var x0)));
  let elapsed = seconds_since t0 in
  Alcotest.(check bool) (Printf.sprintf "decided in %.2fs (< 1 s)" elapsed) true (elapsed < 1.0)

(* One outer round of the fair-EG gfp consumes one fuel unit, so a tank
   one short of the round count runs dry and an exact one does not. *)
let test_leads_to_fuel () =
  let sp, x, prog = counter () in
  let m = Space.manager sp in
  let q = bp sp Expr.(var x === nat 3) in
  ignore (Program.si prog);
  let sweeps = Kpt_obs.counter "leadsto.gfp.sweeps" in
  let before = Kpt_obs.value sweeps in
  Alcotest.(check bool) "true ↦ x=3" true (Props.leads_to prog (Bdd.tru m) q);
  let rounds = Kpt_obs.value sweeps - before in
  Alcotest.(check bool) (Printf.sprintf "several rounds (%d)" rounds) true (rounds >= 2);
  let with_fuel fuel =
    Engine.with_budget (Budget.limits ~fuel ()) (fun () -> Props.leads_to prog (Bdd.tru m) q)
  in
  Alcotest.(check bool) "exact fuel suffices" true (with_fuel rounds);
  match with_fuel (rounds - 1) with
  | _ -> Alcotest.fail "leads-to finished on less fuel than it has rounds"
  | exception Budget.Exhausted (Budget.Fuel_exhausted _) -> ()

(* The symbolic fair-EG against the explicit round-gfp oracle on the
   section-6 protocols [kpt check <protocol> --horizon 2] runs — both
   channels where there is one — for the (35) target [j > k]. *)
let test_fair_avoid_matches_oracle_on_protocols () =
  List.iter
    (fun (name, { Kpt_protocols.Builtin.prog; j; _ }) ->
      let sp = Program.space prog in
      for k = 0 to 1 do
        let q = bp sp Expr.(var j >>> nat k) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: fair_avoid (j > %d) = oracle" name k)
          true
          (Bdd.equal (Props.fair_avoid prog q) (Oracle_leadsto.fair_avoid prog q))
      done)
    (Helpers.section6_programs ())

(* The sweeps of the fair-EG gfp on the section-6 protocols, pinned per
   (35) target [j > k].  Skipping an EU whose target is already [Z] does
   not change any intermediate [Z], so it must not change a sweep count
   either: these are the counts of the unskipped iteration. *)
let test_gfp_sweeps_pinned () =
  let expected =
    [
      ("standard-dup", [ 3; 7 ]);
      ("standard-lossy", [ 2; 2 ]);
      ("abp-dup", [ 3; 7 ]);
      ("abp-lossy", [ 2; 2 ]);
      ("stenning-dup", [ 3; 7 ]);
      ("stenning-lossy", [ 2; 2 ]);
      ("window-dup", [ 3; 4 ]);
      ("window-lossy", [ 1; 1 ]);
      ("kbp", [ 2; 4 ]);
      ("auy", [ 3; 4 ]);
    ]
  in
  let sweeps = Kpt_obs.counter "leadsto.gfp.sweeps" in
  List.iter
    (fun (name, { Kpt_protocols.Builtin.prog; j; _ }) ->
      let sp = Program.space prog in
      List.iteri
        (fun k want ->
          let q = bp sp Expr.(var j >>> nat k) in
          let before = Kpt_obs.value sweeps in
          ignore (Props.fair_avoid prog q);
          Alcotest.(check int)
            (Printf.sprintf "%s: sweeps for j > %d" name k)
            want
            (Kpt_obs.value sweeps - before))
        (List.assoc name expected))
    (Helpers.section6_programs ())

(* [leadsto.eu.steps] counts every EX step of every EU the gfp runs: on
   the section-6 protocols it is the sum of the [eu_steps] fields the
   sweeps stream to the trace sink, and positive wherever an EU ran. *)
let test_eu_steps_counter () =
  List.iter
    (fun (name, { Kpt_protocols.Builtin.prog; j; _ }) ->
      let sp = Program.space prog in
      ignore (Program.si prog);
      let q = bp sp Expr.(var j >>> nat 0) in
      let ctx = Kpt_obs.Ctx.create () in
      let streamed = ref 0 in
      Kpt_obs.Ctx.set_sink ctx
        (Some
           (fun ev fields ->
             if ev = "leadsto.gfp.sweep" then streamed := !streamed + List.assoc "eu_steps" fields));
      Kpt_obs.Ctx.use ctx (fun () -> ignore (Props.fair_avoid prog q));
      let counted = List.assoc "leadsto.eu.steps" (Kpt_obs.Ctx.counters ctx) in
      Alcotest.(check int) (Printf.sprintf "%s: counter = streamed eu_steps" name) !streamed counted;
      Alcotest.(check bool) (Printf.sprintf "%s: some EU ran" name) true (counted > 0))
    (Helpers.section6_programs ())

let suite =
  [
    Alcotest.test_case "unless" `Quick test_unless;
    Alcotest.test_case "unless vacuous cases" `Quick test_unless_vacuous;
    Alcotest.test_case "ensures" `Quick test_ensures;
    Alcotest.test_case "invariant" `Quick test_invariant;
    Alcotest.test_case "leads-to progress" `Quick test_leads_to_progress;
    Alcotest.test_case "leads-to fair avoidance" `Quick test_leads_to_avoidable;
    Alcotest.test_case "leadsto.eu.steps = streamed eu_steps" `Quick test_eu_steps_counter;
    Alcotest.test_case "leads-to vacuous" `Quick test_leads_to_unreachable_antecedent;
    Alcotest.test_case "fair_avoid sets" `Quick test_fair_avoid_sets;
    Alcotest.test_case "holds dispatch" `Quick test_holds_dispatch;
    Alcotest.test_case "random consistency" `Quick test_consistency_random;
    Alcotest.test_case "wlt transformer" `Quick test_wlt;
    Alcotest.test_case "counterexample extraction" `Quick test_counterexamples;
    Alcotest.test_case "state enumeration honours a deadline" `Quick
      test_state_enumeration_honours_deadline;
    Alcotest.test_case "states_of is output-sensitive" `Quick
      test_states_of_is_output_sensitive;
    Alcotest.test_case "wide leads-to is decided symbolically" `Quick
      test_wide_leads_to_is_symbolic;
    Alcotest.test_case "leads-to consumes one fuel unit per round" `Quick test_leads_to_fuel;
    Alcotest.test_case "fair_avoid = oracle on the section-6 protocols" `Slow
      test_fair_avoid_matches_oracle_on_protocols;
    Alcotest.test_case "gfp sweeps pinned on the section-6 protocols" `Quick
      test_gfp_sweeps_pinned;
  ]

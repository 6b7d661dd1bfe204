(* Fault models, resource budgets, and the resilience matrix.

   The load-bearing properties pinned here:
   - fault-model names round-trip through [of_string]/[to_string], and
     the '+'-joined primitive spelling reaches the same models;
   - [Inject.env] grants exactly the statements a model licenses — the
     historical lossy channel is byte-for-byte the deliver+drop pair;
   - figure1 [Kbp.solve] reports [Diverged] with a {e reproducible}
     witness (same orbit, same step count, run after run);
   - figure2's strengthened init flips the solution (the paper's point:
     giving P0 a priori knowledge of [x] changes what the KBP computes);
   - each budget axis (fuel, wall clock, node ceiling) surfaces as its
     own structured [Budget.reason], and [Engine.with_budget] restores
     the previous budget on exit;
   - an armed budget that never trips costs at most 5% on an SI
     fixpoint: the median ratio of 101 interleaved timing pairs;
   - the matrix headline: transmit survives its own §6.3 channel (loss +
     duplication + ⊥-corruption) in every safety-side property, while
     undetectable value corruption breaks safety and the K_R discharge;
   - the pool arms [task_budget] per task: a heavy task exhausts its own
     budget without touching its sibling;
   - the batch checker degrades a budget-exhausted file to a KPT041
     report and exit code 3. *)

module Model = Kpt_fault.Model
module Inject = Kpt_fault.Inject
module Matrix = Kpt_fault.Matrix
module Budget = Kpt_predicate.Budget
module Engine = Kpt_predicate.Engine
module Space = Kpt_predicate.Space
module Bdd = Kpt_predicate.Bdd
module Expr = Kpt_unity.Expr
module Stmt = Kpt_unity.Stmt
module Kbp = Kpt_core.Kbp
module Process = Kpt_unity.Process
module Kform = Kpt_core.Kform
module Channel = Kpt_protocols.Channel
module Seqtrans = Kpt_protocols.Seqtrans
module Check = Kpt_analysis.Check
module D = Kpt_analysis.Diagnostic

(* ---- fault models ----------------------------------------------------------- *)

let test_model_roundtrip () =
  List.iter
    (fun (name, m) ->
      match Model.of_string name with
      | Ok m' ->
          Alcotest.(check bool) (name ^ " round-trips") true (Model.equal m m');
          Alcotest.(check string) (name ^ " prints itself") name (Model.to_string m)
      | Error e -> Alcotest.fail e)
    Model.named;
  (match Model.of_string "dup+loss" with
  | Ok m ->
      Alcotest.(check bool) "dup+loss is the §6.3 channel" true
        (Model.equal m Model.lossy)
  | Error e -> Alcotest.fail e);
  (match Model.of_string "dup+crash" with
  | Ok m ->
      Alcotest.(check bool) "dup+crash is crash-stop" true (Model.equal m Model.crash_stop)
  | Error e -> Alcotest.fail e);
  match Model.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_string accepted \"bogus\""

let stmt_names (e : Inject.channel_env) = List.map Stmt.name e.Inject.statements

let test_inject_shapes () =
  let env model =
    let sp = Space.create () in
    let ch = Channel.declare sp ~name:"c" (Channel.nat_codec ~max:1) in
    Channel.env sp ch ~name:"c" model
  in
  Alcotest.(check (list string))
    "lossy = the historical deliver+drop pair"
    [ "env_dlv_c"; "env_drop_c" ]
    (stmt_names (env Model.lossy));
  Alcotest.(check (list string))
    "perfect channel: a consuming deliver only" [ "env_dlv_c" ]
    (stmt_names (env Model.perfect));
  Alcotest.(check (list string))
    "value corruption adds its own statement"
    [ "env_dlv_c"; "env_drop_c"; "env_corr_c" ]
    (stmt_names (env Model.value_corrupt));
  (* crash-stop: the model owns a shared up-flag; the env declares it and
     contributes the init conjunct *)
  let e = env Model.crash_stop in
  Alcotest.(check bool) "crash model owns an up flag" true (e.Inject.up <> None);
  Alcotest.(check int) "and asserts it initially" 1 (List.length e.Inject.init)

(* ---- figure 1: divergence with a reproducible witness ----------------------- *)

let build_figure1 () =
  let sp = Space.create () in
  let shared = Space.bool_var sp "shared" in
  let x = Space.bool_var sp "x" in
  let p0 = Process.make "P0" [ shared ] in
  let p1 = Process.make "P1" [ shared; x ] in
  Kbp.make sp ~name:"figure1"
    ~init:Expr.(not_ (var shared) &&& not_ (var x))
    ~processes:[ p0; p1 ]
    [
      Kbp.kstmt ~name:"s0"
        ~guard:(Kform.k "P0" (Kform.knot (Kform.base (Expr.var x))))
        [ (shared, Expr.tru) ];
      Kbp.kstmt ~name:"s1" ~guard:(Kform.base (Expr.var shared))
        [ (x, Expr.tru); (shared, Expr.fls) ];
    ]

let test_figure1_diverges () =
  let run () =
    let kbp = build_figure1 () in
    let sp = Kbp.space kbp in
    match Kbp.solve kbp with
    | Kbp.Diverged { orbit; steps } ->
        (List.map (Format.asprintf "%a" (Space.pp_pred sp)) orbit, steps)
    | Kbp.Converged _ -> Alcotest.fail "figure1 must not converge"
    | Kbp.Budget_exhausted _ -> Alcotest.fail "no budget was set"
  in
  let o1, s1 = run () in
  let o2, s2 = run () in
  Alcotest.(check int) "cycle period 2" 2 (List.length o1);
  Alcotest.(check (list string)) "the witness is reproducible" o1 o2;
  Alcotest.(check int) "at the same step count" s1 s2

(* ---- figure 2: the strengthened init flips the solution --------------------- *)

let build_figure2 ~strong =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let y = Space.bool_var sp "y" in
  let z = Space.bool_var sp "z" in
  let p0 = Process.make "P0" [ y ] in
  let p1 = Process.make "P1" [ z ] in
  let init = if strong then Expr.(not_ (var y) &&& var x) else Expr.(not_ (var y)) in
  let kbp =
    Kbp.make sp ~name:"figure2" ~init ~processes:[ p0; p1 ]
      [
        Kbp.kstmt ~name:"s0" ~guard:(Kform.k "P0" (Kform.base (Expr.var x))) [ (y, Expr.tru) ];
        Kbp.kstmt ~name:"s1"
          ~guard:(Kform.k "P1" (Kform.knot (Kform.base (Expr.var y))))
          [ (z, Expr.tru) ];
      ]
  in
  (kbp, x, y)

let test_figure2_flip () =
  let states_with kbp si e =
    let sp = Kbp.space kbp in
    Space.count_states_of sp (Bdd.and_ (Space.manager sp) si (Expr.compile_bool sp e))
  in
  let solve strong =
    let kbp, x, y = build_figure2 ~strong in
    match Kbp.solutions kbp with
    | [ si ] -> (kbp, x, y, si)
    | sols -> Alcotest.failf "expected one solution, got %d" (List.length sols)
  in
  (* weak init: P0 never knows x, so s0 never fires and y stays false *)
  let kbp, x, y, si = solve false in
  Alcotest.(check int) "weak: no y=true state" 0 (states_with kbp si (Expr.var y));
  Alcotest.(check bool) "weak: x=false states survive" true
    (states_with kbp si Expr.(not_ (var x)) > 0);
  (* strong init (x asserted a priori): P0 knows x everywhere, s0 fires *)
  let kbp, x, y, si = solve true in
  Alcotest.(check int) "strong: no x=false state" 0
    (states_with kbp si Expr.(not_ (var x)));
  Alcotest.(check bool) "strong: the protocol reaches y=true" true
    (states_with kbp si (Expr.var y) > 0)

(* ---- budget axes ------------------------------------------------------------ *)

let test_budget_reasons () =
  (match
     Engine.with_budget (Budget.limits ~fuel:3 ()) (fun () ->
         for _ = 1 to 10 do
           Engine.checkpoint ~fuel:1 ()
         done)
   with
  | () -> Alcotest.fail "fuel 3 must not survive 10 checkpoints"
  | exception Budget.Exhausted (Budget.Fuel_exhausted { limit }) ->
      Alcotest.(check int) "fuel reason carries the limit" 3 limit
  | exception Budget.Exhausted r ->
      Alcotest.failf "wrong reason: %s" (Budget.reason_to_string r));
  (match
     Engine.with_budget
       (Budget.limits ~timeout_ns:1L ())
       (fun () -> Engine.checkpoint ())
   with
  | () -> Alcotest.fail "a 1ns deadline must already be past"
  | exception Budget.Exhausted (Budget.Timeout _) -> ()
  | exception Budget.Exhausted r ->
      Alcotest.failf "wrong reason: %s" (Budget.reason_to_string r));
  (match
     Engine.with_budget
       (Budget.limits ~max_nodes:1000 ())
       (fun () ->
         let st = Seqtrans.standard { Seqtrans.n = 2; a = 2 } in
         ignore (Kpt_unity.Program.invariant st.Seqtrans.sprog (Seqtrans.spec_safety st)))
   with
  | () -> Alcotest.fail "checking transmit allocates far more than 1000 nodes"
  | exception Budget.Exhausted (Budget.Node_ceiling { limit; nodes }) ->
      Alcotest.(check int) "node reason carries the ceiling" 1000 limit;
      Alcotest.(check bool) "and the observed count" true (nodes > limit)
  | exception Budget.Exhausted r ->
      Alcotest.failf "wrong reason: %s" (Budget.reason_to_string r));
  match Budget.timeout_of_seconds 0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "timeout_of_seconds must reject 0"

let test_budget_restore () =
  Engine.with_budget (Budget.limits ~fuel:100 ()) (fun () ->
      (try
         Engine.with_budget (Budget.limits ~fuel:1 ()) (fun () ->
             Engine.checkpoint ~fuel:1 ();
             Engine.checkpoint ~fuel:1 ())
       with Budget.Exhausted _ -> ());
      (* the outer budget is back in force: its 100 units are intact *)
      for _ = 1 to 50 do
        Engine.checkpoint ~fuel:1 ()
      done);
  Alcotest.(check bool) "no budget left armed after with_budget" true
    (Engine.budget (Engine.current ()) = None)

(* ---- the price of an armed budget ------------------------------------------- *)

(* The nondeterministic bubble sort of §5 over n naturals below 4. *)
let bubble n =
  let sp = Space.create () in
  let arr = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:3) in
  Kpt_unity.Program.make sp ~name:"bsort" ~init:Expr.tru
    (List.init (n - 1) (fun i ->
         Stmt.make
           ~name:(Printf.sprintf "swap%d" i)
           ~guard:Expr.(var arr.(i) >>> var arr.(i + 1))
           [ (arr.(i), Expr.var arr.(i + 1)); (arr.(i + 1), Expr.var arr.(i)) ]))

(* The same SI workload with and without a generous armed budget: the
   only difference is the checkpoint polls inside [Program.sst] and
   [Bdd.fresh_node].  Two timings taken seconds apart drift on a shared
   host by more than the 5% allowed, so each pair times the two sides
   back to back, in alternating order, and the median over 101 pairs
   drops the outliers. *)
let test_armed_budget_overhead () =
  let generous =
    Budget.limits ~timeout_ns:(Budget.timeout_of_seconds 3600.0) ~fuel:max_int
      ~max_nodes:max_int ()
  in
  let plain () = ignore (Kpt_unity.Program.si (bubble 4)) in
  let armed () = Engine.with_budget generous plain in
  let batch f =
    let t0 = Kpt_obs.now_ns () in
    for _ = 1 to 20 do
      f ()
    done;
    Int64.to_float (Int64.sub (Kpt_obs.now_ns ()) t0)
  in
  let pairs = 101 in
  let ratios =
    Array.init pairs (fun i ->
        if i land 1 = 0 then
          let p = batch plain in
          batch armed /. p
        else
          let a = batch armed in
          a /. batch plain)
  in
  Array.sort Float.compare ratios;
  let median = ratios.(pairs / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "median armed/plain over %d pairs ×%.3f ≤ 1.05" pairs median)
    true (median <= 1.05)

(* ---- the matrix headline ---------------------------------------------------- *)

let test_matrix_headline () =
  let transmit =
    List.find
      (fun (s : Matrix.subject) -> s.Matrix.subject = "transmit")
      Kpt_analysis.Resilience.subjects
  in
  let faults = [ ("lossy", Model.lossy); ("value-corrupt", Model.value_corrupt) ] in
  let m = Matrix.run ~faults [ transmit ] in
  let v ~fault ~prop =
    match Matrix.find m ~subject:"transmit" ~fault ~prop with
    | Some c -> Matrix.verdict_to_string c.Matrix.verdict
    | None -> "missing"
  in
  Alcotest.(check string) "safety survives the §6.3 channel" "holds"
    (v ~fault:"lossy" ~prop:"safety (34)");
  Alcotest.(check string) "the K_R discharge survives ⊥-corruption" "holds"
    (v ~fault:"lossy" ~prop:"K_R discharge (61)");
  Alcotest.(check string) "value corruption breaks safety" "breaks"
    (v ~fault:"value-corrupt" ~prop:"safety (34)");
  Alcotest.(check string) "value corruption breaks the discharge" "breaks"
    (v ~fault:"value-corrupt" ~prop:"K_R discharge (61)");
  Alcotest.(check (list string))
    "broken_by names exactly the new casualties"
    [ "safety (34)"; "K_R discharge (61)" ]
    (Matrix.broken_by m ~subject:"transmit" ~fault:"value-corrupt" ~baseline:"lossy")

(* ---- per-task budgets on the pool ------------------------------------------- *)

let test_par_task_budget () =
  let results =
    Kpt_par.try_map ~jobs:2
      ~task_budget:(Budget.limits ~fuel:5 ())
      (fun heavy ->
        if heavy then
          for _ = 1 to 100 do
            Engine.checkpoint ~fuel:1 ()
          done;
        "done")
      [ true; false ]
  in
  match results with
  | [ Error (Budget.Exhausted (Budget.Fuel_exhausted _)); Ok "done" ] -> ()
  | _ -> Alcotest.fail "the heavy task alone must exhaust its own budget"

(* ---- the batch checker degrades gracefully ---------------------------------- *)

(* transmit runs out in SI; the figures are KBPs and run out inside the
   Ĝ iteration, which must spend the pool task's budget, not arm its own. *)
let test_check_budget () =
  let budget = Budget.limits ~fuel:1 () in
  List.iter
    (fun name ->
      let file = "examples/specs/" ^ name in
      let sources = [ (file, Helpers.slurp ("../" ^ file)) ] in
      (match Check.reports ~jobs:1 ~budget sources with
      | [ r ] ->
          Alcotest.(check bool) (name ^ ": the report fails") true (Check.failed r);
          Alcotest.(check bool) (name ^ ": with a KPT041 diagnostic") true
            (List.exists (fun (d : D.t) -> d.D.code = "KPT041") r.diags);
          let b = Buffer.create 256 in
          let ppf = Format.formatter_of_buffer b in
          Check.render_text ppf [ r ];
          Format.pp_print_flush ppf ();
          Alcotest.(check bool) (name ^ ": the summary says so") true
            (Helpers.contains ~affix:"budget exhausted" (Buffer.contents b))
      | rs -> Alcotest.failf "%s: expected one report, got %d" name (List.length rs));
      let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
      Alcotest.(check int) (name ^ ": exit code 3, the documented resource code") 3
        (Check.run_sources ~jobs:1 ~budget ~quiet:true null sources);
      Alcotest.(check int) (name ^ ": unbudgeted, the same file is fine") 0
        (Check.run_sources ~jobs:1 ~quiet:true null sources))
    [ "transmit.unity"; "figure1.unity"; "figure2.unity" ]

let suite =
  [
    Alcotest.test_case "fault-model names round-trip" `Quick test_model_roundtrip;
    Alcotest.test_case "inject grants exactly the licensed statements" `Quick
      test_inject_shapes;
    Alcotest.test_case "figure1 diverges with a reproducible witness" `Quick
      test_figure1_diverges;
    Alcotest.test_case "figure2's strengthened init flips the solution" `Quick
      test_figure2_flip;
    Alcotest.test_case "each budget axis has its own reason" `Quick test_budget_reasons;
    Alcotest.test_case "with_budget restores the previous budget" `Quick
      test_budget_restore;
    Alcotest.test_case "matrix headline: §6.3 survives, value corruption breaks"
      `Slow test_matrix_headline;
    Alcotest.test_case "the pool arms budgets per task" `Quick test_par_task_budget;
    Alcotest.test_case "kpt check degrades budget exhaustion to KPT041" `Quick
      test_check_budget;
    Alcotest.test_case "an armed budget costs at most 5% on SI" `Quick
      test_armed_budget_overhead;
  ]

(* Ring protocol families and the partitioned transition relations.

   Three pillars:
   - the token-ring family has a known closed-form reachable set (2n
     states), so the sst loop through the frame-free [Stmt.sp] is
     pinned exactly at a non-trivial size;
   - on the whole examples corpus, the section-6 protocols, knowledge-
     based statements re-instantiated at several candidate invariants and
     array writes at unnormalised preconditions, the frame-free
     [Stmt.sp]/[wp] must coincide with the naive monolithic relational
     product against the statement's full transition relation
     ({!Oracle_wp.trans}) — before {e and} after a variable reorder;
   - the mirrored-counters instance separates reordering on from off
     under one node budget: the adversarial declaration order exhausts
     the budget, sifting completes and reproduces the agreement
     predicate exactly. *)

open Kpt_predicate
open Kpt_unity
open Kpt_core
open Kpt_syntax
open Kpt_protocols

(* ---- token ring ------------------------------------------------------------- *)

let test_token_ring_reachable () =
  let n = 8 in
  let r = Ring.token_ring ~n in
  let si = Program.si r.Ring.rprog in
  let count p = Bigcount.to_int (Space.count_states_exact r.Ring.rspace p) in
  Alcotest.(check (option int)) "2n reachable states" (Some (2 * n)) (count si);
  Alcotest.(check bool) "mutual exclusion is invariant" true
    (Program.invariant r.Ring.rprog (Ring.mutex_ok r));
  let m = Space.manager r.Ring.rspace in
  Alcotest.(check (option int)) "token holder busy in n states" (Some n)
    (count (Bdd.and_ m si (Ring.holder_busy r)));
  (* the ring never deadlocks: no reachable fixed point *)
  Alcotest.(check bool) "no reachable fixed point" true
    (Bdd.is_false (Bdd.and_ m si (Program.fixed_points r.Ring.rprog)))

let test_token_ring_stable_counterexample () =
  (* The §2 distinction, pinned through the partitioned sp: mutual
     exclusion is an {e invariant} of the ring (test above) but not
     {e stable} — from the unreachable state ⟨token=0, busy₁⟩, acquire0
     yields two busy stations.  What is stable is the stronger "only the
     token holder may be busy", which implies mutex. *)
  let r = Ring.token_ring ~n:4 in
  let sp = r.Ring.rspace in
  let busy0 = Expr.compile_bool sp (Expr.var r.Ring.busy.(0)) in
  Alcotest.(check bool) "busy0 not stable" false (Program.stable r.Ring.rprog busy0);
  Alcotest.(check bool) "mutex invariant yet not stable" false
    (Program.stable r.Ring.rprog (Ring.mutex_ok r));
  let holder_only =
    Expr.compile_bool sp
      (Expr.conj
         (List.init 4 (fun k ->
              Expr.(not_ (var r.Ring.busy.(k)) ||| (var r.Ring.token === nat k)))))
  in
  Alcotest.(check bool) "only-holder-busy stable" true
    (Program.stable r.Ring.rprog holder_only)

(* ---- corpus equivalence: partitioned vs monolithic ------------------------- *)

let spec_names () =
  Sys.readdir "../examples/specs" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".unity")
  |> List.sort compare

(* Check [Stmt.sp]/[Stmt.wp] of every statement against the monolithic
   products of {!Oracle_wp} ([image], [complement]) at each pin, then
   force a reorder and check again: the cached schedules and cubes must
   survive a level permutation.
   [exact] compares the raw BDDs; otherwise both sides are restricted to
   the domain first. *)
let check_against_monolithic ?(exact = false) label sp stmts pins =
  let m = Space.manager sp in
  let dom = Space.domain sp in
  let norm p = if exact then p else Bdd.and_ m dom p in
  let check_stmt s =
    List.iter
      (fun (tag, p) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: sp %s @ %s" label (Stmt.name s) tag)
          true
          (Bdd.equal (norm (Stmt.sp sp s p)) (norm (Oracle_wp.image sp s p)));
        Alcotest.(check bool)
          (Printf.sprintf "%s: wp %s @ %s" label (Stmt.name s) tag)
          true
          (Bdd.equal (norm (Stmt.wp sp s p)) (norm (Oracle_wp.complement sp s p))))
      pins
  in
  List.iter check_stmt stmts;
  Space.reorder sp;
  List.iter check_stmt stmts

let with_auto_reorder f =
  let eng = Engine.create () in
  Engine.set_reorder_mode eng (Some Engine.Reorder_auto);
  Engine.use eng f

let test_corpus_sp_wp_equivalence () =
  List.iter
    (fun name ->
      let ast = Parser.program_of_string (Helpers.slurp ("../examples/specs/" ^ name)) in
      with_auto_reorder (fun () ->
          let sp, kbp = Elaborate.program ast in
          if Kbp.is_standard kbp then begin
            let prog = Kbp.to_standard_program kbp in
            let pins = [ ("init", Program.init prog); ("si", Program.si prog) ] in
            let before = List.map (fun (tag, p) -> (tag, p, Program.sst prog p)) pins in
            check_against_monolithic name sp (Program.statements prog) pins;
            List.iter
              (fun (tag, p, sst_before) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: sst @ %s stable across reorder" name tag)
                  true
                  (Bdd.equal sst_before (Program.sst prog p)))
              before
          end))
    (spec_names ())

(* The paper's section-6 protocols at n = 2, both channels. *)
let test_section6_sp_wp_equivalence () =
  with_auto_reorder (fun () ->
      List.iter
        (fun (name, { Kpt_protocols.Builtin.prog; _ }) ->
          check_against_monolithic ~exact:true name (Program.space prog)
            (Program.statements prog)
            [ ("init", Program.init prog); ("si", Program.si prog) ])
        (Helpers.section6_programs ()))

(* Knowledge-based specs: every statement is re-instantiated through
   [Stmt.with_guard_pred] at several candidate invariants, each copy
   sharing its base statement's guard-independent schedule. *)
let test_kbp_instances_sp_wp_equivalence () =
  List.iter
    (fun name ->
      let ast = Parser.program_of_string (Helpers.slurp ("../examples/specs/" ^ name)) in
      with_auto_reorder (fun () ->
          let sp, kbp = Elaborate.program ast in
          if not (Kbp.is_standard kbp) then begin
            let m = Space.manager sp in
            let candidates =
              [ ("domain", Space.domain sp); ("init", Kbp.init kbp) ]
              @ (match Kbp.strongest_solution kbp with
                | Some si -> [ ("solution", si) ]
                | None -> [])
            in
            List.iter
              (fun (ctag, si) ->
                let prog = Kbp.instantiate kbp ~si in
                check_against_monolithic ~exact:true
                  (Printf.sprintf "%s[%s]" name ctag)
                  sp (Program.statements prog)
                  [ ("init", Program.init prog); ("si", si); ("¬si", Bdd.not_ m si) ])
              candidates
          end))
    (spec_names ())

(* Array writes over a non-power-of-two sort, against preconditions that
   are not normalised: random predicates over the current bits, so they
   include out-of-domain encodings. *)
let test_array_writes_out_of_domain () =
  with_auto_reorder (fun () ->
      let sp = Space.create () in
      let arr = Array.init 3 (fun k -> Space.nat_var sp (Printf.sprintf "a%d" k) ~max:2) in
      let i = Space.nat_var sp "i" ~max:2 in
      let b = Space.bool_var sp "b" in
      let e = Expr.var in
      let stmts =
        [
          Stmt.make ~name:"write" ~guard:Expr.(var b)
            (Stmt.array_write arr ~index:(e i) (Expr.nat 1));
          Stmt.make ~name:"copy"
            ((i, Expr.(Ite (var i === nat 2, nat 0, var i +! nat 1)))
            :: Stmt.array_write arr ~index:(e i) (e arr.(0)));
          Stmt.make ~name:"flip" ~guard:Expr.(var i === nat 1) [ (b, Expr.(not_ (var b))) ];
        ]
      in
      let m = Space.manager sp in
      let st = Random.State.make [| 18 |] in
      let nbits = 2 * List.length (Space.all_current_bits sp) in
      let random_pred () =
        Bdd.exists m (snd (Oracle_wp.cubes sp)) (Helpers.random_formula st m ~nvars:nbits ~depth:5)
      in
      let pins =
        ("¬domain", Bdd.not_ m (Space.domain sp))
        :: List.init 6 (fun k -> (Printf.sprintf "random%d" k, random_pred ()))
      in
      check_against_monolithic ~exact:true "array" sp stmts pins)

(* ---- the reordering contrast ------------------------------------------------ *)

let mirror_budget = Budget.limits ~max_nodes:800_000 ()

let test_mirror_contrast () =
  (* Same instance, same node budget.  Adversarial declaration order:
     with reordering off the sst fixpoint must blow the budget; with
     auto-sifting on it completes and equals the agreement predicate. *)
  let run mode =
    let eng = Engine.create () in
    Engine.set_reorder_mode eng (Some mode);
    Engine.use eng (fun () ->
        let mr = Ring.mirror ~n:10 ~width:2 in
        Engine.with_budget mirror_budget (fun () ->
            let si = Program.si mr.Ring.mprog in
            Bdd.equal si (Ring.agreement mr)))
  in
  (match run Engine.Reorder_off with
  | (_ : bool) -> Alcotest.fail "reorder off: expected the node budget to blow"
  | exception Budget.Exhausted (Budget.Node_ceiling _) -> ());
  match run Engine.Reorder_auto with
  | ok -> Alcotest.(check bool) "reorder auto: si = agreement" true ok
  | exception Budget.Exhausted r ->
      Alcotest.failf "reorder auto blew the budget: %s" (Budget.reason_to_string r)

let test_mirror_small_exact () =
  (* Independent of reordering: a small mirror instance has exactly
     (2^width)^n reachable states, all agreeing. *)
  let mr = Ring.mirror ~n:3 ~width:2 in
  let si = Program.si mr.Ring.mprog in
  Alcotest.(check bool) "si = agreement (small)" true (Bdd.equal si (Ring.agreement mr));
  Alcotest.(check (option int)) "4^3 reachable states" (Some 64)
    (Bigcount.to_int (Space.count_states_exact mr.Ring.mspace si))

let suite =
  [
    Alcotest.test_case "token ring: exact reachable set" `Quick test_token_ring_reachable;
    Alcotest.test_case "token ring: stability pins" `Quick test_token_ring_stable_counterexample;
    Alcotest.test_case "corpus: partitioned sp/wp = monolithic" `Slow
      test_corpus_sp_wp_equivalence;
    Alcotest.test_case "section 6: partitioned sp/wp = monolithic" `Slow
      test_section6_sp_wp_equivalence;
    Alcotest.test_case "kbp instances: partitioned sp/wp = monolithic" `Slow
      test_kbp_instances_sp_wp_equivalence;
    Alcotest.test_case "array writes, unnormalised: sp/wp = monolithic" `Quick
      test_array_writes_out_of_domain;
    Alcotest.test_case "mirror: reorder on/off contrast" `Slow test_mirror_contrast;
    Alcotest.test_case "mirror: small instance exact" `Quick test_mirror_small_exact;
  ]

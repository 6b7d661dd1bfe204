open Kpt_predicate
open Kpt_unity
open Kpt_logic
open Kpt_core

(* ---- Figure 1: a knowledge-based protocol with NO solution ------------- *)

let figure1 () =
  let sp = Space.create () in
  let shared = Space.bool_var sp "shared" in
  let x = Space.bool_var sp "x" in
  let p0 = Process.make "P0" [ shared ] in
  let p1 = Process.make "P1" [ shared; x ] in
  let s0 =
    Kbp.kstmt ~name:"s0"
      ~guard:(Kform.k "P0" (Kform.knot (Kform.base (Expr.var x))))
      [ (shared, Expr.tru) ]
  in
  let s1 =
    Kbp.kstmt ~name:"s1"
      ~guard:(Kform.base (Expr.var shared))
      [ (x, Expr.tru); (shared, Expr.fls) ]
  in
  let kbp =
    Kbp.make sp ~name:"figure1"
      ~init:Expr.(not_ (var shared) &&& not_ (var x))
      ~processes:[ p0; p1 ] [ s0; s1 ]
  in
  (sp, kbp)

(* ---- Figure 2: SI not monotonic in the initial condition --------------- *)

let figure2 mk_init =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let y = Space.bool_var sp "y" in
  let z = Space.bool_var sp "z" in
  let init = mk_init ~x ~y in
  let p0 = Process.make "P0" [ y ] in
  let p1 = Process.make "P1" [ z ] in
  let s0 =
    Kbp.kstmt ~name:"s0" ~guard:(Kform.k "P0" (Kform.base (Expr.var x))) [ (y, Expr.tru) ]
  in
  let s1 =
    Kbp.kstmt ~name:"s1"
      ~guard:(Kform.k "P1" (Kform.knot (Kform.base (Expr.var y))))
      [ (z, Expr.tru) ]
  in
  let kbp = Kbp.make sp ~name:"figure2" ~init ~processes:[ p0; p1 ] [ s0; s1 ] in
  (sp, x, y, z, kbp)

let bp sp e = Expr.compile_bool sp e

let test_make_validation () =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let p0 = Process.make "P0" [ x ] in
  let good = Kbp.kstmt ~name:"s" ~guard:(Kform.base Expr.tru) [ (x, Expr.tru) ] in
  Alcotest.check_raises "empty statements" (Kbp.Ill_formed "kbp e: empty statement list")
    (fun () -> ignore (Kbp.make sp ~name:"e" ~init:Expr.tru ~processes:[ p0 ] []));
  let badp = Kbp.kstmt ~name:"s" ~guard:(Kform.k "NOPE" (Kform.base Expr.tru)) [ (x, Expr.tru) ] in
  Alcotest.check_raises "unknown process"
    (Kbp.Ill_formed "kbp u: statement s mentions unknown process NOPE") (fun () ->
      ignore (Kbp.make sp ~name:"u" ~init:Expr.tru ~processes:[ p0 ] [ badp ]));
  ignore good

let test_is_standard () =
  let _, kbp1 = figure1 () in
  Alcotest.(check bool) "figure1 uses knowledge" false (Kbp.is_standard kbp1)

let test_figure1_no_solution () =
  let _, kbp = figure1 () in
  let sols = Kbp.solutions kbp in
  Alcotest.(check int) "Figure 1 has NO solution" 0 (List.length sols);
  Alcotest.(check bool) "strongest_solution is None" true
    (Kbp.strongest_solution kbp = None)

let test_figure1_iteration_cycles () =
  let sp, kbp = figure1 () in
  match Kbp.solve kbp with
  | Kbp.Converged _ -> Alcotest.fail "Figure 1 iteration should not converge"
  | Kbp.Budget_exhausted _ -> Alcotest.fail "no budget armed"
  | Kbp.Diverged { orbit; _ } ->
      Alcotest.(check int) "orbit of period 2" 2 (List.length orbit);
      (* The orbit oscillates between {00} and {00,10,01}. *)
      let sizes = List.map (Space.count_states_of sp) orbit |> List.sort compare in
      Alcotest.(check (list int)) "orbit sizes" [ 1; 3 ] sizes

let test_figure1_g_operator_hand_values () =
  let sp, kbp = figure1 () in
  let shared = Space.find sp "shared" in
  let state s v = Space.pred_of_state sp (if Space.idx shared = 0 then [| s; v |] else [| v; s |]) in
  let m = Space.manager sp in
  let s00 = state 0 0 and s10 = state 1 0 and s01 = state 0 1 in
  (* Ĝ({00}) = {00,10,01} — everything becomes reachable. *)
  let g0 = Kbp.g_operator kbp s00 in
  Alcotest.(check bool) "Ĝ({00}) = {00,10,01}" true
    (Pred.equivalent sp g0 (Bdd.disj m [ s00; s10; s01 ]));
  (* Ĝ({00,10,01}) = {00} — with that SI, P0 no longer knows ¬x at 00. *)
  let g1 = Kbp.g_operator kbp (Bdd.disj m [ s00; s10; s01 ]) in
  Alcotest.(check bool) "Ĝ({00,10,01}) = {00}" true (Pred.equivalent sp g1 s00)

let test_figure2_solution_weak_init () =
  let sp, _, y, z, kbp = figure2 (fun ~x:_ ~y -> Expr.(not_ (var y))) in
  let sols = Kbp.solutions kbp in
  Alcotest.(check int) "exactly one solution" 1 (List.length sols);
  let si = List.hd sols in
  Alcotest.(check bool) "SI = ¬y (paper's claim)" true
    (Pred.equivalent sp si (bp sp Expr.(not_ (var y))));
  (* The instantiated protocol satisfies true ↦ z. *)
  let prog = Kbp.instantiate kbp ~si in
  Alcotest.(check bool) "true ↦ z holds under init = ¬y" true
    (Props.leads_to prog (Bdd.tru (Space.manager sp)) (bp sp (Expr.var z)));
  ignore y

let test_figure2_solution_strong_init () =
  let sp, _, _, z, kbp = figure2 (fun ~x ~y -> Expr.(not_ (var y) &&& var x)) in
  let sols = Kbp.solutions kbp in
  Alcotest.(check int) "exactly one solution" 1 (List.length sols);
  let si = List.hd sols in
  Alcotest.(check bool) "SI = x (paper's claim)" true
    (Pred.equivalent sp si (bp sp (Expr.var (Space.find sp "x"))));
  (* The liveness property true ↦ z now FAILS. *)
  let prog = Kbp.instantiate kbp ~si in
  Alcotest.(check bool) "true ↦ z fails under init = ¬y ∧ x" false
    (Props.leads_to prog (Bdd.tru (Space.manager sp)) (bp sp (Expr.var z)))

let test_figure2_nonmonotonicity () =
  (* init₂ ⇒ init₁ but SI₂ ⇏ SI₁: strengthening initial conditions does
     not strengthen the strongest invariant (§4, Figure 2). *)
  let sp1, _, _, _, kbp1 = figure2 (fun ~x:_ ~y -> Expr.(not_ (var y))) in
  let sp2, _, _, _, kbp2 = figure2 (fun ~x ~y -> Expr.(not_ (var y) &&& var x)) in
  let si1 = List.hd (Kbp.solutions kbp1) in
  let si2 = List.hd (Kbp.solutions kbp2) in
  (* Interpret both predicates over their own (isomorphic) spaces via
     state sets. *)
  let states sp si = List.map Array.to_list (Space.states_of sp si) in
  let set1 = states sp1 si1 and set2 = states sp2 si2 in
  (* init₂'s states are a subset of init₁'s *)
  let init1 = states sp1 (Kbp.init kbp1) and init2 = states sp2 (Kbp.init kbp2) in
  Alcotest.(check bool) "init₂ ⇒ init₁" true
    (List.for_all (fun st -> List.mem st init1) init2);
  (* ... and yet SI₂ ⊄ SI₁ *)
  Alcotest.(check bool) "SI₂ ⇏ SI₁ (non-monotonic!)" false
    (List.for_all (fun st -> List.mem st set1) set2)

let test_figure2_iteration_converges () =
  let _, _, _, _, kbp = figure2 (fun ~x:_ ~y -> Expr.(not_ (var y))) in
  match Kbp.solve kbp with
  | Kbp.Converged { si; _ } ->
      let sols = Kbp.solutions kbp in
      Alcotest.(check bool) "iterate finds the unique solution" true
        (Pred.equivalent (Kbp.space kbp) si (List.hd sols))
  | _ -> Alcotest.fail "figure 2 iteration should converge"

let test_standard_kbp_agrees_with_program () =
  (* A KBP with no knowledge guards has exactly one solution: the SI of
     the corresponding standard program. *)
  let sp = Space.create () in
  let x = Space.nat_var sp "x" ~max:2 in
  let p0 = Process.make "P0" [ x ] in
  let s =
    Kbp.kstmt ~name:"inc"
      ~guard:(Kform.base Expr.(var x <<< nat 2))
      [ (x, Expr.(var x +! nat 1)) ]
  in
  let kbp = Kbp.make sp ~name:"std" ~init:Expr.(var x === nat 0) ~processes:[ p0 ] [ s ] in
  Alcotest.(check bool) "is_standard" true (Kbp.is_standard kbp);
  let sols = Kbp.solutions kbp in
  Alcotest.(check int) "unique solution" 1 (List.length sols);
  let direct =
    Program.make sp ~name:"direct" ~init:Expr.(var x === nat 0)
      [ Stmt.make ~name:"inc" ~guard:Expr.(var x <<< nat 2) [ (x, Expr.(var x +! nat 1)) ] ]
  in
  Alcotest.(check bool) "solution = standard SI" true
    (Pred.equivalent sp (List.hd sols) (Program.si direct));
  match Kbp.solve kbp with
  | Kbp.Converged { si; _ } ->
      Alcotest.(check bool) "iterate agrees" true (Pred.equivalent sp si (Program.si direct))
  | _ -> Alcotest.fail "standard KBP must converge"

let test_instantiate_guards () =
  (* Instantiating figure 1 at SI = {00} must enable s0 at the initial
     state (P0 knows ¬x when all possible worlds satisfy ¬x). *)
  let sp, kbp = figure1 () in
  let s00 = Space.pred_of_state sp [| 0; 0 |] in
  let prog = Kbp.instantiate kbp ~si:s00 in
  let s0 = List.find (fun s -> Stmt.name s = "s0") (Program.statements prog) in
  Alcotest.(check bool) "s0 enabled at 00 under SI={00}" true
    (Space.holds_at sp (Stmt.guard_pred sp s0) [| 0; 0 |]);
  (* ... and disabled there under SI = {00,10,01}. *)
  let m = Space.manager sp in
  let si3 =
    Bdd.disj m
      [ s00; Space.pred_of_state sp [| 1; 0 |]; Space.pred_of_state sp [| 0; 1 |] ]
  in
  let prog3 = Kbp.instantiate kbp ~si:si3 in
  let s0' = List.find (fun s -> Stmt.name s = "s0") (Program.statements prog3) in
  Alcotest.(check bool) "s0 disabled at 00 under larger SI" false
    (Space.holds_at sp (Stmt.guard_pred sp s0') [| 0; 0 |])

let test_pp_smoke () =
  let _, kbp = figure1 () in
  let s = Format.asprintf "%a" Kbp.pp kbp in
  Alcotest.(check bool) "pp nonempty" true (String.length s > 40)

(* ---- equivalence of the cached Kbp internals against naive rebuilds ---- *)

(* Reference instantiation built from the public kstmt syntax with no
   shared statement caches: every statement is made from scratch. *)
let naive_instantiate kbp ~si =
  let sp = Kbp.space kbp in
  let lookup pname = List.find (fun p -> Process.name p = pname) (Kbp.processes kbp) in
  let stmts =
    List.map
      (fun (s : Kbp.kstmt) ->
        let g = Kform.compile sp ~lookup ~si s.kguard in
        Stmt.with_guard_pred (Stmt.make ~name:s.kname s.kassigns) g)
      (Kbp.kstmts kbp)
  in
  Program.make_with_init_pred sp ~name:(Kbp.name kbp) ~init:(Kbp.init kbp)
    ~processes:(Kbp.processes kbp) stmts

let naive_g kbp x = Pred.normalize (Kbp.space kbp) (Program.si (naive_instantiate kbp ~si:x))

let example_kbps () =
  [
    snd (figure1 ());
    (let _, _, _, _, k = figure2 (fun ~x:_ ~y -> Expr.(not_ (var y))) in
     k);
    (let _, _, _, _, k = figure2 (fun ~x ~y -> Expr.(not_ (var y) &&& var x)) in
     k);
  ]

let test_g_operator_naive_equiv () =
  List.iter
    (fun kbp ->
      let sp = Kbp.space kbp in
      let st = Helpers.rng () in
      for _ = 1 to 12 do
        let x = Pred.random st sp in
        let opt = try Ok (Kbp.g_operator kbp x) with Program.Ill_formed _ -> Error () in
        let ref_ = try Ok (naive_g kbp x) with Program.Ill_formed _ -> Error () in
        match (opt, ref_) with
        | Ok g1, Ok g2 ->
            Alcotest.(check bool) "Ĝ = naive Ĝ" true (Bdd.equal g1 g2)
        | Error (), Error () -> ()
        | _ -> Alcotest.fail "Ĝ and naive Ĝ disagree on instantiation failure"
      done)
    (example_kbps ())

let naive_iterate ?(max_steps = 10_000) kbp =
  let sp = Kbp.space kbp in
  let seen = Hashtbl.create 64 in
  let rec go x steps trail =
    if steps > max_steps then invalid_arg "naive_iterate";
    let x' = naive_g kbp x in
    if Bdd.equal x' x then Kbp.Converged { si = x; steps }
    else if Hashtbl.mem seen (Bdd.uid x') then
      let rec upto acc = function
        | [] -> acc
        | y :: rest -> if Bdd.equal y x' then y :: acc else upto (y :: acc) rest
      in
      Kbp.Diverged { orbit = upto [] trail; steps }
    else begin
      Hashtbl.add seen (Bdd.uid x') ();
      go x' (steps + 1) (x' :: trail)
    end
  in
  let x0 = Pred.normalize sp (Kbp.init kbp) in
  Hashtbl.add seen (Bdd.uid x0) ();
  go x0 0 [ x0 ]

let test_iterate_naive_equiv () =
  List.iter
    (fun kbp ->
      let same =
        match (Kbp.solve kbp, naive_iterate kbp) with
        | Kbp.Converged { si = x; steps = n }, Kbp.Converged { si = y; steps = k } ->
            n = k && Bdd.equal x y
        | Kbp.Diverged { orbit = xs; _ }, Kbp.Diverged { orbit = ys; _ } ->
            List.length xs = List.length ys && List.for_all2 Bdd.equal xs ys
        | _ -> false
      in
      Alcotest.(check bool) "iterate = naive iterate" true same)
    (example_kbps ())

(* Brute-force all candidate invariants over the whole (small) space: the
   fixpoints of the naive Ĝ must be exactly Kbp.solutions. *)
let brute_solutions kbp =
  let sp = Kbp.space kbp in
  let m = Space.manager sp in
  let all = ref [] in
  Space.iter_states sp (fun st -> all := Array.copy st :: !all);
  let states = Array.of_list !all in
  let n = Array.length states in
  let found = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let x = ref (Bdd.fls m) in
    for b = 0 to n - 1 do
      if (mask lsr b) land 1 = 1 then x := Bdd.or_ m !x (Space.pred_of_state sp states.(b))
    done;
    let candidate = Pred.normalize sp !x in
    match naive_g kbp candidate with
    | gx -> if Bdd.equal gx candidate then found := candidate :: !found
    | exception Program.Ill_formed _ -> ()
  done;
  List.sort_uniq (fun a b -> compare (Bdd.uid a) (Bdd.uid b)) !found

let test_solutions_naive_equiv () =
  List.iter
    (fun kbp ->
      let sols = Kbp.solutions kbp in
      let brute = brute_solutions kbp in
      Alcotest.(check int) "same number of solutions" (List.length brute) (List.length sols);
      List.iter
        (fun s ->
          Alcotest.(check bool) "solution found by brute force" true
            (List.exists (Bdd.equal s) brute))
        sols)
    (example_kbps ())

(* ---- the symbolic universe and the candidate cap ---------------------- *)

let shipped_kbps () =
  List.map
    (fun (file, src) ->
      (file, snd (Kpt_syntax.Elaborate.program (Kpt_syntax.Parser.program_of_string src))))
    (Helpers.shipped_specs ())

let test_universe_oracle () =
  List.iter
    (fun kbp ->
      Alcotest.(check bool) (Kbp.name kbp ^ ": universe = explicit BFS") true
        (Oracle_universe.agrees kbp))
    (example_kbps () @ List.map snd (shipped_kbps ()))

(* A standard KBP has exactly its one solution, SI, however many states
   its universe holds: the shipped specs all exceed the 2^22 cap. *)
let test_standard_kbp_skips_enumeration () =
  List.iter
    (fun (file, kbp) ->
      if Kbp.is_standard kbp then
        match Kbp.solutions kbp with
        | [ si ] ->
            Alcotest.(check bool) (file ^ ": the solution is SI") true
              (Bdd.equal si (Program.si (Kbp.to_standard_program kbp)))
        | sols -> Alcotest.failf "%s: %d solutions" file (List.length sols))
    (shipped_kbps ())

(* [x] counts to 30 under a knowledge guard: 30 free states, past the cap. *)
let counter_kbp () =
  let sp = Space.create () in
  let x = Space.nat_var sp "x" ~max:30 in
  Kbp.make sp ~name:"counter"
    ~init:Expr.(var x === nat 0)
    ~processes:[ Process.make "P" [ x ] ]
    [
      Kbp.kstmt ~name:"inc"
        ~guard:(Kform.k "P" (Kform.base Expr.(var x <<< nat 30)))
        [ (x, Expr.(var x +! nat 1)) ];
    ]

let test_candidate_cap () =
  let kbp = counter_kbp () in
  Alcotest.(check bool) "the universe is 0..30" true (Oracle_universe.agrees kbp);
  match Kbp.solutions kbp with
  | _ -> Alcotest.fail "31 candidate states enumerated past the 2^22 cap"
  | exception Kbp.Too_many_candidates { free; cap } ->
      Alcotest.(check (pair string int)) "free states, cap" ("30", 22)
        (Bigcount.to_string free, cap)

(* 15 123 087 548 710 125 568 free states — more than a native int
   holds — are counted, never listed, so the cap is reported at once. *)
let test_cap_counted_symbolically () =
  Helpers.with_transmit3 ~width:30 ~knowledge:true @@ fun path ->
  let t0 = Unix.gettimeofday () in
  let code, _, err =
    Helpers.run_kpt ~kill_after:20. [ "verify"; path; "--invariant"; "j <= 3" ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "verify exits 1" 1 code;
  Alcotest.(check bool) (Printf.sprintf "under 5 s (%.2fs)" elapsed) true (elapsed < 5.0);
  Alcotest.(check string) "the cap line"
    "error: the KBP has 15123087548710125568 free candidate states, past the 2^22 \
     solver cap\n"
    err

(* Automatic sifting at a tiny threshold sifts, and sweeps, between the
   Ĝ steps of [solve]: the sweeps recycle ids, and [solve] detects a
   cycle by the ids of the iterates its trail holds.  The result — the
   verdict, the step count and every set on the orbit — must be the one
   computed with reordering off. *)
let test_iterate_under_auto_sift () =
  let load n family =
    let fam = Option.get (Kpt_gen.Family.find family) in
    let built = fam.Kpt_gen.Family.build ~n (Kpt_gen.Rng.of_int n) in
    Kpt_syntax.Elaborate.program built.Kpt_gen.Family.ast
  in
  let figure2_weak () =
    let sp, _, _, _, kbp = figure2 (fun ~x:_ ~y -> Expr.(not_ (var y))) in
    (sp, kbp)
  in
  let summary sp = function
    | Kbp.Converged { si; steps } -> ("converged", steps, [ Space.states_of sp si ])
    | Kbp.Diverged { orbit; steps } -> ("diverged", steps, List.map (Space.states_of sp) orbit)
    | Kbp.Budget_exhausted _ -> Alcotest.fail "no budget armed"
  in
  let runs = Kpt_obs.counter "bdd.reorder.runs" in
  List.iter
    (fun (name, build) ->
      let sp, kbp = build () in
      let off = summary sp (Kbp.solve kbp) in
      let sp, kbp = build () in
      Bdd.set_auto_reorder (Space.manager sp) ~threshold:16 true;
      let before = Kpt_obs.value runs in
      let on = summary sp (Kbp.solve kbp) in
      if Kpt_obs.value runs = before then Alcotest.failf "%s: no sift ran" name;
      let verdict, steps, sets = off and verdict', steps', sets' = on in
      Alcotest.(check string) (name ^ ": verdict") verdict verdict';
      Alcotest.(check int) (name ^ ": steps") steps steps';
      Alcotest.(check int) (name ^ ": sets") (List.length sets) (List.length sets');
      List.iter2
        (fun a b -> Alcotest.(check bool) (name ^ ": same states") true (a = b))
        sets sets')
    [
      ("figure1", figure1);
      ("figure2", figure2_weak);
      ("relay 3", fun () -> load 3 "relay");
      ("antiknow 3", fun () -> load 3 "antiknow");
    ]

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "is_standard" `Quick test_is_standard;
    Alcotest.test_case "iterate: auto-sift leaves the result unchanged" `Quick
      test_iterate_under_auto_sift;
    Alcotest.test_case "FIGURE 1: no solution exists" `Quick test_figure1_no_solution;
    Alcotest.test_case "FIGURE 1: iteration cycles" `Quick test_figure1_iteration_cycles;
    Alcotest.test_case "FIGURE 1: Ĝ hand values" `Quick test_figure1_g_operator_hand_values;
    Alcotest.test_case "FIGURE 2: SI under weak init" `Quick test_figure2_solution_weak_init;
    Alcotest.test_case "FIGURE 2: SI under strong init" `Quick test_figure2_solution_strong_init;
    Alcotest.test_case "FIGURE 2: non-monotonicity" `Quick test_figure2_nonmonotonicity;
    Alcotest.test_case "FIGURE 2: iteration converges" `Quick test_figure2_iteration_converges;
    Alcotest.test_case "standard KBP = standard program" `Quick
      test_standard_kbp_agrees_with_program;
    Alcotest.test_case "instantiation of guards" `Quick test_instantiate_guards;
    Alcotest.test_case "Ĝ = naive Ĝ" `Quick test_g_operator_naive_equiv;
    Alcotest.test_case "iterate = naive iterate" `Quick test_iterate_naive_equiv;
    Alcotest.test_case "solutions = brute force" `Quick test_solutions_naive_equiv;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    Alcotest.test_case "universe = explicit BFS oracle" `Quick test_universe_oracle;
    Alcotest.test_case "standard KBP: one solution, no enumeration" `Quick
      test_standard_kbp_skips_enumeration;
    Alcotest.test_case "knowledge KBP past the cap raises" `Quick test_candidate_cap;
    Alcotest.test_case "the cap is checked on a symbolic count" `Quick
      test_cap_counted_symbolically;
  ]

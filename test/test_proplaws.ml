(* Seeded property-based suite: the paper's algebraic laws checked on
   randomly generated small UNITY programs, predicates and variable
   partitions.

   - S5 axioms of K_i (eqs. 14-18)
   - junctivity laws of K_i (eqs. 19-24)
   - the weakest-cylinder laws behind them (eq. 6: strengthening,
     idempotence, cylinder-hood, universal conjunctivity)
   - the relational-product kernel under [sp]/[wp]: a mixed cube that
     quantifies some bits and moves others to their pair partners, against
     the independent [rename] oracle and across a reorder, and its refusal
     of a move whose partner survives
   - SI's fire-branch chaining (eq. 3) against the literal Kleene
     iteration

   Every random draw flows from the shared SplitMix64 PRNG
   ([Kpt_gen.Rng] — the same seed discipline the corpus generator and
   difftest use), so a failure is replayable bit-for-bit: the error
   message prints the seed and the case number, and

     KPT_PROP_SEED=<seed> KPT_PROP_CASES=<n> dune runtest

   reruns the identical sequence.  KPT_PROP_CASES scales the depth: the
   default is 200 cases per law; the `fuzz-smoke` alias runs the same
   laws with a larger budget. *)

open Kpt_predicate
open Kpt_unity
open Kpt_core

(* the hand-rolled splitmix64 that used to live here, promoted to the
   generator library and shared with the corpus pipeline *)
module Sm64 = Kpt_gen.Rng

let seed =
  match Option.map Kpt_gen.Rng.seed_of_string (Sys.getenv_opt "KPT_PROP_SEED") with
  | Some (Some s) -> s
  | _ -> 0x5EED_2026L

let cases =
  match Option.map int_of_string_opt (Sys.getenv_opt "KPT_PROP_CASES") with
  | Some (Some n) when n > 0 -> n
  | _ -> 200

let failf case fmt =
  Format.kasprintf
    (fun msg ->
      Alcotest.failf "%s@.  (case %d of %d; %s)" msg case cases
        (Helpers.replay_banner ~env_var:"KPT_PROP_SEED" ~seed
           ~extra:[ ("KPT_PROP_CASES", string_of_int cases) ]
           ()))
    fmt

let checkf case cond fmt =
  Format.kasprintf (fun msg -> if not cond then failf case "%s" msg) fmt

(* ---- random scenarios ------------------------------------------------------- *)

type scenario = {
  sp : Space.t;
  vars : Space.var list;
  prog : Program.t;
  procs : Process.t list;  (* two processes partitioning the variables *)
  rs : Random.State.t;  (* for Pred.random *)
}

(* a random Boolean expression over the declared variables *)
let rec bool_expr g sp vars depth =
  let leaf () =
    let v = List.nth vars (Sm64.int g (List.length vars)) in
    match Space.card v with
    | 2 when Space.width v = 1 && Space.value_name v 1 = "true" -> Expr.var v
    | card ->
        let k = Expr.nat (Sm64.int g card) in
        if Sm64.bool g then Expr.(var v === k) else Expr.(var v <== k)
  in
  if depth = 0 then
    match Sm64.int g 6 with 0 -> Expr.tru | 1 -> Expr.fls | _ -> leaf ()
  else
    let sub () = bool_expr g sp vars (depth - 1) in
    match Sm64.int g 5 with
    | 0 -> Expr.(sub () &&& sub ())
    | 1 -> Expr.(sub () ||| sub ())
    | 2 -> Expr.(sub () ==> sub ())
    | 3 -> Expr.not_ (sub ())
    | _ -> leaf ()

(* a range-safe right-hand side for an assignment to [v]: constants,
   the variable itself, saturating decrement, or a guarded choice of
   in-range values — never anything that could overflow the type (the
   [Program.make] totality check would reject it) *)
let rhs_expr g sp vars v =
  let card = Space.card v in
  let const () = Expr.nat (Sm64.int g card) in
  if Space.value_name v 1 = "true" && card = 2 then
    match Sm64.int g 4 with
    | 0 -> Expr.tru
    | 1 -> Expr.fls
    | 2 -> Expr.not_ (Expr.var v)
    | _ -> bool_expr g sp vars 1
  else
    match Sm64.int g 4 with
    | 0 -> const ()
    | 1 -> Expr.var v
    | 2 -> Expr.(var v -! nat 1)
    | _ -> Expr.Ite (bool_expr g sp vars 1, const (), const ())

let scenario g =
  let sp = Space.create () in
  (* Fuzz the laws under dynamic reordering: an aggressive threshold makes
     sifting fire many times within each scenario, so every law is checked
     across order changes, not just under the static order (which the rest
     of the suite already covers). *)
  Bdd.set_auto_reorder (Space.manager sp) ~threshold:500 true;
  let nvars = 2 + Sm64.int g 3 in
  let vars =
    List.init nvars (fun i ->
        let name = Printf.sprintf "v%d" i in
        if Sm64.int g 3 < 2 then Space.bool_var sp name
        else Space.nat_var sp name ~max:(1 + Sm64.int g 2))
  in
  (* partition the variables over two processes; a variable may be
     shared, and each process sees at least one variable *)
  let assign_to = List.map (fun v -> (v, Sm64.int g 3)) vars in
  let pick side =
    match List.filter_map (fun (v, s) -> if s = side || s = 2 then Some v else None) assign_to with
    | [] -> [ List.nth vars (Sm64.int g nvars) ]
    | vs -> vs
  in
  let p0 = Process.make "P0" (pick 0) in
  let p1 = Process.make "P1" (pick 1) in
  let nstmts = 1 + Sm64.int g 3 in
  let stmts =
    List.init nstmts (fun i ->
        let t = List.nth vars (Sm64.int g nvars) in
        let guard = bool_expr g sp vars 2 in
        Stmt.make ~name:(Printf.sprintf "s%d" i) ~guard [ (t, rhs_expr g sp vars t) ])
  in
  let init =
    let e = bool_expr g sp vars 2 in
    if Bdd.is_false (Pred.normalize sp (Expr.compile_bool sp e)) then Expr.tru else e
  in
  let prog = Program.make sp ~name:"rand" ~init ~processes:[ p0; p1 ] stmts in
  { sp; vars; prog; procs = [ p0; p1 ]; rs = Sm64.random_state g }

(* a valid-over-the-space but structurally nontrivial predicate, for
   exercising necessitation (18): domain ∨ p covers every type-correct
   state (so it is [Pred.valid]) without being the constant true BDD
   whenever some variable has a non-power-of-two domain *)
let valid_pred s =
  Bdd.or_ (Space.manager s.sp) (Space.domain s.sp) (Pred.random s.rs s.sp)

(* ---- the laws ---------------------------------------------------------------- *)

let with_cases f () =
  let g = Sm64.make seed in
  for case = 1 to cases do
    f case g
  done

(* S5 axioms, eqs. 14-18 *)
let test_s5 =
  with_cases @@ fun case g ->
  let s = scenario g in
  let m = Space.manager s.sp in
  let proc = if Sm64.bool g then "P0" else "P1" in
  let k = Knowledge.knows_in s.prog proc in
  let p = Pred.random s.rs s.sp and q = Pred.random s.rs s.sp in
  checkf case (Pred.holds_implies s.sp (k p) p) "(14) K %s p ⇒ p" proc;
  let lhs = Bdd.and_ m (k p) (k (Bdd.imp m p q)) in
  checkf case (Pred.holds_implies s.sp lhs (k q)) "(15) K p ∧ K(p⇒q) ⇒ K q";
  checkf case (Pred.equivalent s.sp (k p) (k (k p))) "(16) K p ≡ K K p";
  checkf case
    (Pred.equivalent s.sp (Bdd.not_ m (k p)) (k (Bdd.not_ m (k p))))
    "(17) ¬K p ≡ K ¬K p";
  let v = valid_pred s in
  checkf case (Pred.valid s.sp v && Pred.valid s.sp (k v)) "(18) [p] ⇒ [K p]"

(* junctivity of K_i, eqs. 19-22 *)
let test_junctivity =
  with_cases @@ fun case g ->
  let s = scenario g in
  let m = Space.manager s.sp in
  let proc = if Sm64.bool g then "P0" else "P1" in
  let k = Knowledge.knows_in s.prog proc in
  let p = Pred.random s.rs s.sp and q = Pred.random s.rs s.sp in
  (* (19) monotonicity, on the guaranteed pair p∧q ⇒ p *)
  checkf case
    (Pred.holds_implies s.sp (k (Bdd.and_ m p q)) (k p))
    "(19) p ⇒ q gives K p ⇒ K q";
  (* (21) universal conjunctivity: binary meet (the empty meet is (18)) *)
  checkf case
    (Pred.equivalent s.sp (Bdd.and_ m (k p) (k q)) (k (Bdd.and_ m p q)))
    "(21) K p ∧ K q ≡ K (p ∧ q)";
  (* (22) K is not disjunctive in general, but the ⇒ direction is a law *)
  checkf case
    (Pred.holds_implies s.sp (Bdd.or_ m (k p) (k q)) (k (Bdd.or_ m p q)))
    "(22⇒) K p ∨ K q ⇒ K (p ∨ q)"

(* (20) anti-monotonicity in the invariant argument *)
let test_anti_monotone =
  with_cases @@ fun case g ->
  let s = scenario g in
  let m = Space.manager s.sp in
  let proc = List.nth s.procs (Sm64.int g 2) in
  let p = Pred.random s.rs s.sp in
  let si1 = Bdd.or_ m (Program.si s.prog) (Pred.random s.rs s.sp) in
  let si2 = Bdd.and_ m si1 (Pred.random s.rs s.sp) in
  let k1 = Knowledge.knows s.sp ~si:si1 proc p in
  let k2 = Knowledge.knows s.sp ~si:si2 proc p in
  checkf case
    (Pred.holds_implies s.sp (Bdd.and_ m si2 k1) k2)
    "(20) si' ⇒ si gives (si' ∧ K^si p) ⇒ K^si' p"

(* invariant correspondences, eqs. 23-24 *)
let test_invariant_laws =
  with_cases @@ fun case g ->
  let s = scenario g in
  let m = Space.manager s.sp in
  let pname = if Sm64.bool g then "P0" else "P1" in
  let k = Knowledge.knows_in s.prog pname in
  let p = Pred.random s.rs s.sp in
  checkf case
    (Program.invariant s.prog p = Program.invariant s.prog (k p))
    "(23) invariant p ≡ invariant K p";
  let pvars = Process.vars (Program.find_process s.prog pname) in
  let q = Wcyl.wcyl s.sp pvars (Pred.random s.rs s.sp) in
  checkf case
    (Program.invariant s.prog (Bdd.imp m q p)
    = Program.invariant s.prog (Bdd.imp m q (k p)))
    "(24) invariant (q ⇒ p) ≡ invariant (q ⇒ K p) for local q"

(* the weakest cylinder, eq. 6: strengthening, idempotence, cylinder-hood,
   universal conjunctivity — on random variable subsets of random spaces *)
let test_wcyl_laws =
  with_cases @@ fun case g ->
  let s = scenario g in
  let m = Space.manager s.sp in
  let vs = List.filter (fun _ -> Sm64.bool g) s.vars in
  let p = Pred.random s.rs s.sp and q = Pred.random s.rs s.sp in
  let w = Wcyl.wcyl s.sp vs p in
  checkf case (Pred.holds_implies s.sp w p) "(6) wcyl V p ⇒ p";
  checkf case (Pred.equivalent s.sp (Wcyl.wcyl s.sp vs w) w) "wcyl idempotent";
  checkf case (Wcyl.is_cylinder s.sp vs w) "wcyl V p depends only on V";
  checkf case
    (Pred.equivalent s.sp
       (Wcyl.wcyl s.sp vs (Bdd.and_ m p q))
       (Bdd.and_ m (Wcyl.wcyl s.sp vs p) (Wcyl.wcyl s.sp vs q)))
    "(11) wcyl universally conjunctive";
  (* a predicate already cylindrical on V is a fixpoint (property 9) *)
  checkf case (Pred.equivalent s.sp (Wcyl.wcyl s.sp s.vars p) p) "wcyl over all vars = id"

(* The relational-product kernel on random pair literals: per pair
   (2k, 2k+1), keep both bits, take the shape [sp]/[wp] use (∃ current,
   move next), its mirror (∃ next, move current), ∃ both, or move one bit
   of a pair whose partner no operand reads.  The one-pass
   [and_exists] over the mixed cube must be [rename (±1) ∘ exists ∘ and_],
   the same node before and after a forced reorder. *)
let random_literals g ~npairs ~skip ~allow_absent =
  let quant = ref [] and move = ref [] and absent = ref [] in
  for k = 0 to npairs - 1 do
    let cur = 2 * k and nxt = (2 * k) + 1 in
    if k <> skip then
      match Sm64.int g (if allow_absent then 6 else 4) with
      | 0 -> ()
      | 1 -> quant := cur :: !quant; move := nxt :: !move
      | 2 -> quant := nxt :: !quant; move := cur :: !move
      | 3 -> quant := cur :: nxt :: !quant
      | 4 -> move := cur :: !move; absent := nxt :: !absent
      | _ -> move := nxt :: !move; absent := cur :: !absent
  done;
  (!quant, !move, !absent)

let test_mixed_cube =
  with_cases @@ fun case g ->
  let m = Bdd.create () in
  let rs = Sm64.random_state g in
  let npairs = 4 in
  let quant, move, absent = random_literals g ~npairs ~skip:(-1) ~allow_absent:true in
  let operand () =
    Bdd.exists m (Bdd.cube m absent) (Helpers.random_formula rs m ~nvars:(2 * npairs) ~depth:5)
  in
  let a = operand () and b = operand () in
  let oracle a b =
    Bdd.rename m
      (fun v -> if List.mem v move then v lxor 1 else v)
      (Bdd.exists m (Bdd.cube m quant) (Bdd.and_ m a b))
  in
  let c = Bdd.cube m ~move quant in
  let ae = Bdd.and_exists m c a b and ex = Bdd.exists m c a in
  checkf case (Bdd.equal ae (oracle a b)) "and_exists over a mixed cube = rename ∘ ∃ ∘ ∧";
  checkf case (Bdd.equal ex (oracle a (Bdd.tru m))) "exists over a mixed cube = rename ∘ ∃";
  Bdd.reorder m;
  checkf case
    (Bdd.equal (Bdd.and_exists m c a b) ae && Bdd.equal (Bdd.and_exists m c a b) (oracle a b))
    "and_exists over a mixed cube after a reorder";
  checkf case (Bdd.equal (Bdd.exists m c a) ex) "exists over a mixed cube after a reorder"

(* Both partner-collision shapes raise [Invalid_argument], whatever the
   cube does to the other pairs and before and after a reorder: moving the
   odd bit of a pair whose even partner survives above it, and moving the
   even bit of a pair whose odd partner survives below it. *)
let test_partner_collision =
  with_cases @@ fun case g ->
  let m = Bdd.create () in
  let rs = Sm64.random_state g in
  let npairs = 4 in
  let k = Sm64.int g npairs in
  let quant, move, _ = random_literals g ~npairs ~skip:k ~allow_absent:false in
  let off_pair () =
    let f =
      Bdd.exists m (Bdd.cube m [ 2 * k; (2 * k) + 1 ])
        (Helpers.random_formula rs m ~nvars:(2 * npairs) ~depth:4)
    in
    if Bdd.is_false f then Bdd.tru m else f
  in
  let both = Bdd.conj m [ Bdd.var m (2 * k); Bdd.var m ((2 * k) + 1); off_pair () ] in
  let b = off_pair () in
  let b = if Bdd.is_false (Bdd.and_ m both b) then Bdd.tru m else b in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let check_shapes when_ =
    List.iter
      (fun (moved, shape) ->
        let c = Bdd.cube m ~move:(moved :: move) quant in
        checkf case (raises (fun () -> Bdd.exists m c both)) "exists: %s (%s)" shape when_;
        checkf case (raises (fun () -> Bdd.and_exists m c both b)) "and_exists: %s (%s)" shape when_)
      [
        ((2 * k) + 1, "partner above a moved odd bit");
        (2 * k, "partner below a moved even bit");
      ]
  in
  check_shapes "before a reorder";
  Bdd.reorder m;
  check_shapes "after a reorder"

(* SI's chained iteration images only the fire branch of each statement
   ([Stmt.post]); it must still be the very BDD of the full-set Kleene
   iteration [x' = p ∨ x ∨ SP.x], whose [SP] includes the skip branch. *)
let test_sst_fire_image =
  with_cases @@ fun case g ->
  let s = scenario g in
  let p = Pred.random s.rs s.sp in
  checkf case
    (Bdd.equal (Program.sst s.prog p) (Oracle_sst.naive s.prog p))
    "(3) sst p = Kleene iteration of p ∨ x ∨ SP.x";
  checkf case
    (Bdd.equal (Program.si s.prog) (Oracle_sst.naive s.prog (Program.init s.prog)))
    "(3) SI = Kleene iteration from init"

let suite =
  [
    Alcotest.test_case "(14)-(18) S5 axioms on random programs" `Quick test_s5;
    Alcotest.test_case "(19),(21),(22) junctivity on random programs" `Quick test_junctivity;
    Alcotest.test_case "(20) anti-monotone in SI on random programs" `Quick test_anti_monotone;
    Alcotest.test_case "(23),(24) invariant correspondences" `Quick test_invariant_laws;
    Alcotest.test_case "(6),(9),(11) weakest-cylinder laws" `Quick test_wcyl_laws;
    Alcotest.test_case "and_exists over a mixed cube = rename ∘ ∃ ∘ ∧" `Quick test_mixed_cube;
    Alcotest.test_case "a move whose partner survives raises" `Quick test_partner_collision;
    Alcotest.test_case "(3) fire-image sst = Kleene iteration" `Quick test_sst_fire_image;
  ]

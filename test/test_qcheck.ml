(* Property-based suites (QCheck, registered through QCheck_alcotest).

   Generators produce *syntax* — Boolean formula trees, well-typed UNITY
   expressions, whole random programs — and properties check the semantic
   laws of the paper on the compiled objects.  Everything here complements
   the example-based suites with randomised coverage and shrinking. *)

open Kpt_predicate
open Kpt_unity

(* ---- generator: Boolean formulas over n variables ----------------------- *)

type formula =
  | FVar of int
  | FTrue
  | FFalse
  | FNot of formula
  | FAnd of formula * formula
  | FOr of formula * formula
  | FImp of formula * formula
  | FIff of formula * formula

let rec pp_formula fmt = function
  | FVar i -> Format.fprintf fmt "v%d" i
  | FTrue -> Format.fprintf fmt "T"
  | FFalse -> Format.fprintf fmt "F"
  | FNot f -> Format.fprintf fmt "¬%a" pp_formula f
  | FAnd (a, b) -> Format.fprintf fmt "(%a∧%a)" pp_formula a pp_formula b
  | FOr (a, b) -> Format.fprintf fmt "(%a∨%a)" pp_formula a pp_formula b
  | FImp (a, b) -> Format.fprintf fmt "(%a⇒%a)" pp_formula a pp_formula b
  | FIff (a, b) -> Format.fprintf fmt "(%a≡%a)" pp_formula a pp_formula b

let formula_gen ~nvars =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self size ->
            if size <= 1 then
              oneof
                [ map (fun i -> FVar i) (int_bound (nvars - 1)); return FTrue; return FFalse ]
            else
              let sub = self (size / 2) in
              oneof
                [
                  map (fun f -> FNot f) (self (size - 1));
                  map2 (fun a b -> FAnd (a, b)) sub sub;
                  map2 (fun a b -> FOr (a, b)) sub sub;
                  map2 (fun a b -> FImp (a, b)) sub sub;
                  map2 (fun a b -> FIff (a, b)) sub sub;
                ])
          (min size 24)))

let rec shrink_formula f =
  let open QCheck.Iter in
  match f with
  | FVar _ | FTrue | FFalse -> empty
  | FNot a -> return a <+> (shrink_formula a >|= fun a -> FNot a)
  | FAnd (a, b) | FOr (a, b) | FImp (a, b) | FIff (a, b) ->
      return a <+> return b
      <+> (shrink_formula a >|= fun a' -> rebuild f a' b)
      <+> (shrink_formula b >|= fun b' -> rebuild f a b')

and rebuild f a b =
  match f with
  | FAnd _ -> FAnd (a, b)
  | FOr _ -> FOr (a, b)
  | FImp _ -> FImp (a, b)
  | FIff _ -> FIff (a, b)
  | _ -> assert false

let arbitrary_formula ~nvars =
  QCheck.make
    ~print:(Format.asprintf "%a" pp_formula)
    ~shrink:shrink_formula (formula_gen ~nvars)

let rec to_bdd ?(remap = fun i -> i) m = function
  | FVar i -> Bdd.var m (remap i)
  | FTrue -> Bdd.tru m
  | FFalse -> Bdd.fls m
  | FNot f -> Bdd.not_ m (to_bdd ~remap m f)
  | FAnd (a, b) -> Bdd.and_ m (to_bdd ~remap m a) (to_bdd ~remap m b)
  | FOr (a, b) -> Bdd.or_ m (to_bdd ~remap m a) (to_bdd ~remap m b)
  | FImp (a, b) -> Bdd.imp m (to_bdd ~remap m a) (to_bdd ~remap m b)
  | FIff (a, b) -> Bdd.iff m (to_bdd ~remap m a) (to_bdd ~remap m b)

let rec eval_formula env = function
  | FVar i -> env i
  | FTrue -> true
  | FFalse -> false
  | FNot f -> not (eval_formula env f)
  | FAnd (a, b) -> eval_formula env a && eval_formula env b
  | FOr (a, b) -> eval_formula env a || eval_formula env b
  | FImp (a, b) -> (not (eval_formula env a)) || eval_formula env b
  | FIff (a, b) -> eval_formula env a = eval_formula env b

let nvars = 5

(* BDD compilation is exact: agree with direct evaluation on every point *)
let prop_bdd_sound =
  QCheck.Test.make ~count:300 ~name:"bdd: compile = evaluate" (arbitrary_formula ~nvars)
    (fun f ->
      let m = Bdd.create () in
      let b = to_bdd m f in
      let ok = ref true in
      for code = 0 to (1 lsl nvars) - 1 do
        let env i = (code lsr i) land 1 = 1 in
        if Bdd.eval b env <> eval_formula env f then ok := false
      done;
      !ok)

let prop_bdd_canonical =
  QCheck.Test.make ~count:200 ~name:"bdd: semantic equality = physical equality"
    (QCheck.pair (arbitrary_formula ~nvars) (arbitrary_formula ~nvars)) (fun (f, g) ->
      let m = Bdd.create () in
      let bf = to_bdd m f and bg = to_bdd m g in
      let same_sem = ref true in
      for code = 0 to (1 lsl nvars) - 1 do
        let env i = (code lsr i) land 1 = 1 in
        if Bdd.eval bf env <> Bdd.eval bg env then same_sem := false
      done;
      Bdd.equal bf bg = !same_sem)

let prop_bdd_quantifier_duality =
  QCheck.Test.make ~count:200 ~name:"bdd: ∀ = ¬∃¬" (arbitrary_formula ~nvars) (fun f ->
      let m = Bdd.create () in
      let b = to_bdd m f in
      let vs = [ 0; 2; 4 ] in
      Bdd.equal (Bdd.forall m (Bdd.cube m vs) b) (Bdd.not_ m (Bdd.exists m (Bdd.cube m vs) (Bdd.not_ m b))))

let prop_bdd_sat_count =
  QCheck.Test.make ~count:200 ~name:"bdd: sat_count = brute force" (arbitrary_formula ~nvars)
    (fun f ->
      let m = Bdd.create () in
      let b = to_bdd m f in
      let brute = ref 0 in
      for code = 0 to (1 lsl nvars) - 1 do
        let env i = (code lsr i) land 1 = 1 in
        if Bdd.eval b env then incr brute
      done;
      Bigcount.to_int (Bdd.sat_count_exact m ~nvars b) = Some !brute)

let prop_bdd_relational_product =
  QCheck.Test.make ~count:150 ~name:"bdd: and_exists = exists ∘ and"
    (QCheck.pair (arbitrary_formula ~nvars) (arbitrary_formula ~nvars)) (fun (f, g) ->
      let m = Bdd.create () in
      let bf = to_bdd m f and bg = to_bdd m g in
      let vs = [ 1; 3 ] in
      Bdd.equal (Bdd.and_exists m (Bdd.cube m vs) bf bg) (Bdd.exists m (Bdd.cube m vs) (Bdd.and_ m bf bg)))

(* Brute-force quantifier oracles over [nvars] variables: the value at a
   point is the disjunction (conjunction) of [b] over every assignment to
   the quantified variables. *)
let brute_quant ~ex ~nvars vs b =
  let mask = List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 vs in
  List.init (1 lsl nvars) (fun code ->
      let hits = ref 0 and total = ref 0 in
      for sub = 0 to (1 lsl nvars) - 1 do
        if sub land lnot mask = 0 then begin
          incr total;
          let pt = code land lnot mask lor sub in
          if Bdd.eval b (fun i -> (pt lsr i) land 1 = 1) then incr hits
        end
      done;
      if ex then !hits > 0 else !hits = !total)

let table ~nvars b = List.init (1 lsl nvars) (fun code -> Bdd.eval b (fun i -> (code lsr i) land 1 = 1))

(* The relational product caches every subproblem across calls, keyed on
   uids.  Computing the same products again after a reorder (which
   collects twice and sifts) and after warming the cache on overlapping
   cubes must give the identical nodes, equal to the brute-force
   definitions. *)
let prop_bdd_quant_cache_across_calls =
  let nvars = 8 in
  QCheck.Test.make ~count:100 ~name:"bdd: cached ∃/∀/and_exists sound across calls and reorders"
    (QCheck.pair (arbitrary_formula ~nvars) (arbitrary_formula ~nvars)) (fun (f, g) ->
      let m = Bdd.create () in
      let bf = to_bdd m f and bg = to_bdd m g in
      let vs = [ 1; 2; 5; 6 ] in
      let c = Bdd.cube m vs in
      (* warm the cache on cubes sharing suffixes with [c] *)
      ignore (Bdd.and_exists m (Bdd.cube m [ 5; 6 ]) bf bg);
      ignore (Bdd.exists m (Bdd.cube m [ 2; 6 ]) bf);
      let ae1 = Bdd.and_exists m c bf bg and ex1 = Bdd.exists m c bf
      and fa1 = Bdd.forall m c bf in
      Bdd.reorder m;
      let ae2 = Bdd.and_exists m c bf bg and ex2 = Bdd.exists m c bf
      and fa2 = Bdd.forall m c bf in
      Bdd.equal ae1 ae2 && Bdd.equal ex1 ex2 && Bdd.equal fa1 fa2
      && Bdd.equal ae2 (Bdd.exists m c (Bdd.and_ m bf bg))
      && table ~nvars ex2 = brute_quant ~ex:true ~nvars vs bf
      && table ~nvars fa2 = brute_quant ~ex:false ~nvars vs bf)

(* The pair swap against the generic [rename] oracle: a predicate over
   current bits only moves up by one, one over next bits only moves down
   by one — before and after sifting. *)
let prop_bdd_swap_pairs =
  QCheck.Test.make ~count:150 ~name:"bdd: swap_pairs = rename ±1 (current-only, next-only)"
    (QCheck.pair (arbitrary_formula ~nvars) QCheck.bool) (fun (f, on_next) ->
      let m = Bdd.create () in
      let bit i = (2 * i) + if on_next then 1 else 0 in
      let b = to_bdd ~remap:bit m f in
      (* a second predicate over both copies gives sifting something to move *)
      ignore (to_bdd ~remap:(fun i -> (2 * nvars) - 1 - i) m f);
      let bits = List.init nvars bit in
      let shift = if on_next then -1 else 1 in
      let check () = Bdd.equal (Bdd.swap_pairs m bits b) (Bdd.rename m (fun v -> v + shift) b) in
      let before = check () in
      Bdd.reorder m;
      before && check ())

(* The one-pass difference and the containment test against the
   operators they replace: [diff a b] is the very node [a ∧ ¬b], and
   [implies] answers [is_true (a ⇒ b)] — before and after sifting, so
   the z = 1 cache entries they share with [and]/[imp] survive a level
   permutation. *)
let prop_bdd_diff_implies =
  let nvars = 8 in
  QCheck.Test.make ~count:200 ~name:"bdd: diff a b == a ∧ ¬b, implies = is_true (a ⇒ b), across a sift"
    (QCheck.pair (arbitrary_formula ~nvars) (arbitrary_formula ~nvars)) (fun (f, g) ->
      let m = Bdd.create () in
      let a = to_bdd m f and b = to_bdd m g in
      let check () =
        let d = Bdd.diff m a b in
        Bdd.equal d (Bdd.and_ m a (Bdd.not_ m b))
        && Bdd.equal (Bdd.diff m b a) (Bdd.and_ m b (Bdd.not_ m a))
        && Bdd.implies m a b = Bdd.is_true (Bdd.imp m a b)
        && Bdd.implies m b a = Bdd.is_true (Bdd.imp m b a)
        && Bdd.implies m d a
        && Bdd.implies m (Bdd.and_ m a b) b
      in
      let before = check () in
      Bdd.reorder m;
      before && check ())

(* ---- wp without complements ----------------------------------------------- *)

(* A space with out-of-domain states — [k : nat(2)] spends two bits on
   three values — and targets whose right-hand sides may not fit their
   bits: [n : nat(3)] under [n := n + 1] at n = 3 or [n := 7], and [k]
   under [k := k + 1] at the out-of-domain k = 3. *)
let wp_stmt (gi, rn, rk, rb) =
  let sp = Space.create () in
  let n = Space.nat_var sp "n" ~max:3 in
  let k = Space.nat_var sp "k" ~max:2 in
  let b = Space.bool_var sp "b" in
  let open Expr in
  let vn = var n and vk = var k and vb = var b in
  let guard = [| tru; vb; vn <<< vk; not_ vb &&& (vn === nat 3); vk === nat 3 |].(gi) in
  let assign v choices r = Option.map (fun i -> (v, choices.(i))) r in
  let assigns =
    List.filter_map Fun.id
      [
        assign n [| vn +! nat 1; nat 7; vk +! vn; Ite (vb, vn +! nat 1, vk) |] rn;
        assign k [| vk +! nat 1; vn; nat 3; vn -! vk |] rk;
        assign b [| not_ vb; vn === vk; vb ||| (vk <<< vn) |] rb;
      ]
  in
  (sp, Stmt.make ~name:"s" ~guard assigns)

let prop_wp_equals_complement_form =
  let choice =
    QCheck.(
      quad (int_bound 4) (option (int_bound 3)) (option (int_bound 3)) (option (int_bound 2)))
  in
  QCheck.Test.make ~count:300
    ~name:"stmt: wp = complement form (overflowing rhs, out-of-domain states), across a sift"
    (QCheck.pair choice (arbitrary_formula ~nvars:5)) (fun (c, f) ->
      let sp, s = wp_stmt c in
      let m = Space.manager sp in
      let cur = Array.of_list (Space.all_current_bits sp) in
      assert (Array.length cur = 5);
      (* a predicate over every bit pattern, not only the domain's *)
      let p = to_bdd ~remap:(fun i -> cur.(i)) m f in
      let check () = Bdd.equal (Stmt.wp sp s p) (Oracle_wp.complement sp s p) in
      let before = check () in
      Space.reorder sp;
      before && check ())

(* ---- generator: well-typed UNITY expressions ----------------------------- *)

(* A fixed test space: two bounded nats and two booleans. *)
let expr_space () =
  let sp = Space.create () in
  let n1 = Space.nat_var sp "n1" ~max:6 in
  let n2 = Space.nat_var sp "n2" ~max:6 in
  let b1 = Space.bool_var sp "b1" in
  let b2 = Space.bool_var sp "b2" in
  (sp, n1, n2, b1, b2)

(* Expressions are generated as closed syntax trees over variable INDICES
   so they can be printed/shrunk without carrying the space around. *)
type exprsyn =
  | ENat of int
  | ENVar of bool (* which nat var *)
  | EBool of bool
  | EBVar of bool (* which bool var *)
  | EAdd of exprsyn * exprsyn
  | ESub of exprsyn * exprsyn
  | ENot of exprsyn
  | EAnd of exprsyn * exprsyn
  | EOr of exprsyn * exprsyn
  | EEq of exprsyn * exprsyn  (* nat = nat *)
  | ELt of exprsyn * exprsyn
  | EIte of exprsyn * exprsyn * exprsyn (* bool ? nat : nat *)

let rec pp_exprsyn fmt = function
  | ENat k -> Format.fprintf fmt "%d" k
  | ENVar w -> Format.fprintf fmt "n%d" (if w then 2 else 1)
  | EBool b -> Format.pp_print_bool fmt b
  | EBVar w -> Format.fprintf fmt "b%d" (if w then 2 else 1)
  | EAdd (a, b) -> Format.fprintf fmt "(%a+%a)" pp_exprsyn a pp_exprsyn b
  | ESub (a, b) -> Format.fprintf fmt "(%a∸%a)" pp_exprsyn a pp_exprsyn b
  | ENot a -> Format.fprintf fmt "¬%a" pp_exprsyn a
  | EAnd (a, b) -> Format.fprintf fmt "(%a∧%a)" pp_exprsyn a pp_exprsyn b
  | EOr (a, b) -> Format.fprintf fmt "(%a∨%a)" pp_exprsyn a pp_exprsyn b
  | EEq (a, b) -> Format.fprintf fmt "(%a=%a)" pp_exprsyn a pp_exprsyn b
  | ELt (a, b) -> Format.fprintf fmt "(%a<%a)" pp_exprsyn a pp_exprsyn b
  | EIte (c, a, b) -> Format.fprintf fmt "(%a?%a:%a)" pp_exprsyn c pp_exprsyn a pp_exprsyn b

let nat_gen, bool_gen =
  let open QCheck.Gen in
  let rec nat size =
    if size <= 1 then oneof [ map (fun k -> ENat k) (int_bound 6); map (fun w -> ENVar w) bool ]
    else
      let sub = nat (size / 2) in
      oneof
        [
          map2 (fun a b -> EAdd (a, b)) sub sub;
          map2 (fun a b -> ESub (a, b)) sub sub;
          map3 (fun c a b -> EIte (c, a, b)) (boolg (size / 2)) sub sub;
        ]
  and boolg size =
    if size <= 1 then oneof [ map (fun b -> EBool b) bool; map (fun w -> EBVar w) bool ]
    else
      let sub = boolg (size / 2) in
      let nsub = nat (size / 2) in
      oneof
        [
          map (fun a -> ENot a) (boolg (size - 1));
          map2 (fun a b -> EAnd (a, b)) sub sub;
          map2 (fun a b -> EOr (a, b)) sub sub;
          map2 (fun a b -> EEq (a, b)) nsub nsub;
          map2 (fun a b -> ELt (a, b)) nsub nsub;
        ]
  in
  (sized (fun s -> nat (min s 16)), sized (fun s -> boolg (min s 16)))

let rec to_expr ~n1 ~n2 ~b1 ~b2 = function
  | ENat k -> Expr.nat k
  | ENVar w -> Expr.var (if w then n2 else n1)
  | EBool b -> if b then Expr.tru else Expr.fls
  | EBVar w -> Expr.var (if w then b2 else b1)
  | EAdd (a, b) -> Expr.(to_expr ~n1 ~n2 ~b1 ~b2 a +! to_expr ~n1 ~n2 ~b1 ~b2 b)
  | ESub (a, b) -> Expr.(to_expr ~n1 ~n2 ~b1 ~b2 a -! to_expr ~n1 ~n2 ~b1 ~b2 b)
  | ENot a -> Expr.not_ (to_expr ~n1 ~n2 ~b1 ~b2 a)
  | EAnd (a, b) -> Expr.(to_expr ~n1 ~n2 ~b1 ~b2 a &&& to_expr ~n1 ~n2 ~b1 ~b2 b)
  | EOr (a, b) -> Expr.(to_expr ~n1 ~n2 ~b1 ~b2 a ||| to_expr ~n1 ~n2 ~b1 ~b2 b)
  | EEq (a, b) -> Expr.(to_expr ~n1 ~n2 ~b1 ~b2 a === to_expr ~n1 ~n2 ~b1 ~b2 b)
  | ELt (a, b) -> Expr.(to_expr ~n1 ~n2 ~b1 ~b2 a <<< to_expr ~n1 ~n2 ~b1 ~b2 b)
  | EIte (c, a, b) ->
      Expr.Ite
        (to_expr ~n1 ~n2 ~b1 ~b2 c, to_expr ~n1 ~n2 ~b1 ~b2 a, to_expr ~n1 ~n2 ~b1 ~b2 b)

let arbitrary_bool_expr = QCheck.make ~print:(Format.asprintf "%a" pp_exprsyn) bool_gen
let arbitrary_nat_expr = QCheck.make ~print:(Format.asprintf "%a" pp_exprsyn) nat_gen

let prop_expr_compile_agrees =
  QCheck.Test.make ~count:200 ~name:"expr: symbolic compile = concrete eval (bool)"
    arbitrary_bool_expr (fun syn ->
      let sp, n1, n2, b1, b2 = expr_space () in
      let e = to_expr ~n1 ~n2 ~b1 ~b2 syn in
      let symbolic = Expr.compile_bool sp e in
      let ok = ref true in
      Space.iter_states sp (fun st ->
          let c = Expr.eval_bool e (fun v -> st.(Space.idx v)) in
          if c <> Space.holds_at sp symbolic st then ok := false);
      !ok)

let prop_expr_compile_agrees_nat =
  QCheck.Test.make ~count:200 ~name:"expr: symbolic compile = concrete eval (nat)"
    arbitrary_nat_expr (fun syn ->
      let sp, n1, n2, b1, b2 = expr_space () in
      let e = to_expr ~n1 ~n2 ~b1 ~b2 syn in
      let vec = Expr.compile_int sp e in
      let m = Space.manager sp in
      let ok = ref true in
      Space.iter_states sp (fun st ->
          let c = Expr.eval e (fun v -> st.(Space.idx v)) in
          if not (Pred.holds_implies sp (Space.pred_of_state sp st) (Bitvec.eq_const m vec c))
          then ok := false);
      !ok)

let prop_expr_typing_total =
  QCheck.Test.make ~count:300 ~name:"expr: generated expressions are well-typed"
    arbitrary_bool_expr (fun syn ->
      let _, n1, n2, b1, b2 = expr_space () in
      Expr.typeof (to_expr ~n1 ~n2 ~b1 ~b2 syn) = Expr.Tbool)

(* ---- generator: random UNITY programs ------------------------------------ *)

(* All variables share the same range so variable-to-variable assignment is
   always in range; other right-hand sides are clamped with ∸ so totality
   holds by construction. *)
let program_gen =
  let open QCheck.Gen in
  let stmt_syn = pair bool_gen (list_size (int_range 1 2) (pair bool nat_gen)) in
  list_size (int_range 1 4) stmt_syn

let print_program syns =
  String.concat " | "
    (List.map
       (fun (g, assigns) ->
         Format.asprintf "%a -> %s" pp_exprsyn g
           (String.concat ","
              (List.map
                 (fun (w, rhs) ->
                   Format.asprintf "n%d:=%a" (if w then 2 else 1) pp_exprsyn rhs)
                 assigns)))
       syns)

let build_program syns =
  let sp, n1, n2, b1, b2 = expr_space () in
  let clamp rhs = Expr.(rhs -! (rhs -! nat 6)) in
  let stmts =
    List.mapi
      (fun i (gsyn, assigns) ->
        let guard = to_expr ~n1 ~n2 ~b1 ~b2 gsyn in
        (* dedupe targets: last write wins *)
        let tbl = Hashtbl.create 4 in
        List.iter
          (fun (w, rhssyn) ->
            let v = if w then n2 else n1 in
            Hashtbl.replace tbl (Space.idx v) (v, clamp (to_expr ~n1 ~n2 ~b1 ~b2 rhssyn)))
          assigns;
        let assigns = Hashtbl.fold (fun _ a acc -> a :: acc) tbl [] in
        Stmt.make ~name:(Printf.sprintf "s%d" i) ~guard assigns)
      syns
  in
  (sp, Program.make sp ~name:"random" ~init:Expr.tru stmts)

let arbitrary_program = QCheck.make ~print:print_program program_gen

let prop_sst_closure =
  QCheck.Test.make ~count:60 ~name:"program: sst is a stable closure operator"
    (QCheck.pair arbitrary_program (arbitrary_formula ~nvars:4)) (fun (syns, fsyn) ->
      let sp, prog = build_program syns in
      let m = Space.manager sp in
      (* interpret the formula over the current bits of the space *)
      let p = to_bdd ~remap:(fun i -> 2 * i) m fsyn in
      let s = Program.sst prog p in
      Pred.holds_implies sp p s && Program.stable prog s
      && Bdd.equal (Program.sst prog s) s)

let prop_sst_monotone =
  QCheck.Test.make ~count:60 ~name:"program: sst monotone (eq. 4)"
    (QCheck.triple arbitrary_program (arbitrary_formula ~nvars:4) (arbitrary_formula ~nvars:4))
    (fun (syns, f, g) ->
      let sp, prog = build_program syns in
      let m = Space.manager sp in
      let p = to_bdd ~remap:(fun i -> 2 * i) m f in
      let q = Bdd.or_ m p (to_bdd ~remap:(fun i -> 2 * i) m g) in
      Pred.holds_implies sp (Program.sst prog p) (Program.sst prog q))

(* Eq. 3 fixes the least fixpoint, not the iteration order: the chained
   [Program.sst], the frontier oracle and the full-set Kleene iteration
   must return the identical canonical BDD. *)
let prop_frontier_sst_equals_naive =
  QCheck.Test.make ~count:60 ~name:"program: frontier sst = full-set Kleene sst"
    (QCheck.pair arbitrary_program (arbitrary_formula ~nvars:4)) (fun (syns, fsyn) ->
      let sp, prog = build_program syns in
      let m = Space.manager sp in
      let p = to_bdd ~remap:(fun i -> 2 * i) m fsyn in
      let naive = Oracle_sst.naive prog p in
      Bdd.equal (Oracle_sst.frontier prog p) naive && Bdd.equal (Program.sst prog p) naive)

let prop_chained_sst_equals_frontier =
  QCheck.Test.make ~count:60 ~name:"program: chained sst = frontier sst"
    (QCheck.pair arbitrary_program (arbitrary_formula ~nvars:4)) (fun (syns, fsyn) ->
      let sp, prog = build_program syns in
      let m = Space.manager sp in
      let p = to_bdd ~remap:(fun i -> 2 * i) m fsyn in
      Bdd.equal (Program.sst prog p) (Oracle_sst.frontier prog p))

let prop_ensures_implies_leadsto =
  QCheck.Test.make ~count:40 ~name:"logic: ensures ⊆ leads-to"
    (QCheck.triple arbitrary_program (arbitrary_formula ~nvars:4) (arbitrary_formula ~nvars:4))
    (fun (syns, f, g) ->
      let sp, prog = build_program syns in
      let m = Space.manager sp in
      let p = to_bdd ~remap:(fun i -> 2 * i) m f in
      let q = to_bdd ~remap:(fun i -> 2 * i) m g in
      ignore sp;
      (not (Kpt_logic.Props.ensures prog p q)) || Kpt_logic.Props.leads_to prog p q)

(* The symbolic Emerson–Lei fair-EG against the explicit round-gfp
   oracle, which enumerates states and schedules statement masks. *)
let prop_fair_avoid_equals_oracle =
  QCheck.Test.make ~count:60 ~name:"logic: symbolic fair_avoid = explicit oracle"
    (QCheck.pair arbitrary_program (arbitrary_formula ~nvars:4)) (fun (syns, fsyn) ->
      let sp, prog = build_program syns in
      let q = to_bdd ~remap:(fun i -> 2 * i) (Space.manager sp) fsyn in
      Bdd.equal (Kpt_logic.Props.fair_avoid prog q) (Oracle_leadsto.fair_avoid prog q))

(* Counterexamples are picked symbolically; they must be the first
   violating state in enumeration order, as an explicit scan finds it. *)
let prop_counterexample_is_first_state =
  QCheck.Test.make ~count:60 ~name:"logic: counterexample = first enumerated state"
    (QCheck.pair arbitrary_program (arbitrary_formula ~nvars:4)) (fun (syns, fsyn) ->
      let sp, prog = build_program syns in
      let m = Space.manager sp in
      let p = to_bdd ~remap:(fun i -> 2 * i) m fsyn in
      let bad = Bdd.and_ m (Program.si prog) (Bdd.not_ m p) in
      let first = match Helpers.states_by_filter sp bad with [] -> None | st :: _ -> Some st in
      Kpt_logic.Props.invariant_counterexample prog p = first)

(* ---- the symbolic state walk ---------------------------------------------- *)

(* Random small spaces mixing Booleans, bounded naturals (most of them
   non-power-of-two) and enumerations, each with a seed for a random
   predicate over its current bits — out-of-range encodings included. *)
type vsort = Vbool | Vnat of int | Venum of int

let pp_vsort = function
  | Vbool -> "bool"
  | Vnat k -> Printf.sprintf "nat(%d)" k
  | Venum n -> Printf.sprintf "enum(%d)" n

let arbitrary_space_pred =
  QCheck.make
    ~print:(fun (sorts, seed) ->
      Printf.sprintf "[%s] seed %d" (String.concat "; " (List.map pp_vsort sorts)) seed)
    QCheck.Gen.(
      pair
        (list_size (int_range 1 4)
           (oneof
              [
                return Vbool;
                map (fun k -> Vnat k) (int_range 0 6);
                map (fun n -> Venum n) (int_range 1 5);
              ]))
        int)

let build_space_pred (sorts, seed) =
  let sp = Space.create () in
  List.iteri
    (fun i sort ->
      let name = Printf.sprintf "v%d" i in
      ignore
        (match sort with
        | Vbool -> Space.bool_var sp name
        | Vnat k -> Space.nat_var sp name ~max:k
        | Venum n -> Space.enum_var sp name ~values:(Array.init n (Printf.sprintf "e%d"))))
    sorts;
  let m = Space.manager sp in
  let bits = Array.of_list (Space.all_current_bits sp) in
  let st = Random.State.make [| seed |] in
  let rec go depth =
    if depth = 0 then
      match Random.State.int st 5 with
      | 0 -> Bdd.tru m
      | 1 -> Bdd.fls m
      | _ -> Bdd.var m bits.(Random.State.int st (Array.length bits))
    else
      match Random.State.int st 4 with
      | 0 -> Bdd.and_ m (go (depth - 1)) (go (depth - 1))
      | 1 -> Bdd.or_ m (go (depth - 1)) (go (depth - 1))
      | 2 -> Bdd.xor m (go (depth - 1)) (go (depth - 1))
      | _ -> Bdd.not_ m (go (depth - 1))
  in
  (sp, go 4)

let prop_states_of_equals_filter =
  QCheck.Test.make ~count:200 ~name:"space: states_of = filter over iter_states, in order"
    arbitrary_space_pred (fun syn ->
      let sp, p = build_space_pred syn in
      let filtered = Helpers.states_by_filter sp p in
      Space.states_of sp p = filtered
      && Space.first_state sp p = (match filtered with [] -> None | st :: _ -> Some st))

let prop_unless_conjunction_sound =
  QCheck.Test.make ~count:40 ~name:"logic: appendix-8 conjunction is semantically sound"
    (QCheck.triple arbitrary_program (arbitrary_formula ~nvars:4) (arbitrary_formula ~nvars:4))
    (fun (syns, f, g) ->
      let sp, prog = build_program syns in
      let m = Space.manager sp in
      let p = to_bdd ~remap:(fun i -> 2 * i) m f in
      let p' = to_bdd ~remap:(fun i -> 2 * i) m g in
      let q = Bdd.not_ m p and q' = Bdd.not_ m p' in
      ignore sp;
      (not (Kpt_logic.Props.unless prog p q && Kpt_logic.Props.unless prog p' q'))
      || Kpt_logic.Props.unless prog (Bdd.and_ m p p') (Bdd.or_ m q q'))

(* ---- knowledge properties on random worlds -------------------------------- *)

let prop_s5_random_si =
  QCheck.Test.make ~count:80 ~name:"knowledge: S5 laws for arbitrary SI"
    (QCheck.pair (arbitrary_formula ~nvars:4) (arbitrary_formula ~nvars:4)) (fun (fsi, fp) ->
      let sp = Space.create () in
      let a = Space.bool_var sp "a" in
      let b = Space.bool_var sp "b" in
      let _c = Space.bool_var sp "c" in
      let _d = Space.bool_var sp "d" in
      let proc = Process.make "P" [ a; b ] in
      let m = Space.manager sp in
      let cur i = 2 * i in
      let si = to_bdd ~remap:cur m fsi and p = to_bdd ~remap:cur m fp in
      let k x = Kpt_core.Knowledge.knows sp ~si proc x in
      (* (14) *)
      Pred.holds_implies sp (k p) p
      (* (16) *)
      && Pred.equivalent sp (k p) (k (k p))
      (* (17) *)
      && Pred.equivalent sp (Bdd.not_ m (k p)) (k (Bdd.not_ m (k p)))
      (* (18) *)
      && ((not (Pred.valid sp p)) || Pred.valid sp (k p)))

let prop_k_conjunctive_random_si =
  QCheck.Test.make ~count:80 ~name:"knowledge: (21) K(p∧q) = Kp ∧ Kq for arbitrary SI"
    (QCheck.triple (arbitrary_formula ~nvars:4) (arbitrary_formula ~nvars:4)
       (arbitrary_formula ~nvars:4)) (fun (fsi, fp, fq) ->
      let sp = Space.create () in
      let a = Space.bool_var sp "a" in
      let b = Space.bool_var sp "b" in
      let _c = Space.bool_var sp "c" in
      let _d = Space.bool_var sp "d" in
      let proc = Process.make "P" [ a; b ] in
      let m = Space.manager sp in
      let cur i = 2 * i in
      let si = to_bdd ~remap:cur m fsi in
      let p = to_bdd ~remap:cur m fp and q = to_bdd ~remap:cur m fq in
      let k x = Kpt_core.Knowledge.knows sp ~si proc x in
      Pred.equivalent sp (k (Bdd.and_ m p q)) (Bdd.and_ m (k p) (k q)))

let prop_wcyl_galois =
  QCheck.Test.make ~count:100 ~name:"wcyl: Galois with cylinder inclusion (9)+(10)"
    (QCheck.pair (arbitrary_formula ~nvars:4) (arbitrary_formula ~nvars:4)) (fun (fp, fq) ->
      let sp = Space.create () in
      let a = Space.bool_var sp "a" in
      let b = Space.bool_var sp "b" in
      let _c = Space.bool_var sp "c" in
      let _d = Space.bool_var sp "d" in
      let m = Space.manager sp in
      let cur i = 2 * i in
      let p = to_bdd ~remap:cur m fp in
      (* q: an arbitrary cylinder on {a,b} *)
      let q = Kpt_core.Wcyl.wcyl sp [ a; b ] (to_bdd ~remap:cur m fq) in
      (* (10): q ⇒ p implies q ⇒ wcyl p; and conversely by (7) *)
      Pred.holds_implies sp q p
      = Pred.holds_implies sp q (Kpt_core.Wcyl.wcyl sp [ a; b ] p))

(* ---- random knowledge-based protocols ------------------------------------ *)

(* Random 2-boolean KBPs: two processes (each sees one variable), two
   statements with random K-guards and random boolean assignments. *)
type kguard = GSelf | GKOther | GKNotOther | GPlain of bool

let pp_kguard = function
  | GSelf -> "self"
  | GKOther -> "K(other)"
  | GKNotOther -> "K(~other)"
  | GPlain b -> Printf.sprintf "const %b" b

let kbp_gen =
  QCheck.Gen.(
    let guard = oneofl [ GSelf; GKOther; GKNotOther; GPlain true; GPlain false ] in
    (* each statement: guard × target-value *)
    pair (pair guard bool) (pair guard bool))

let print_kbp ((g0, v0), (g1, v1)) =
  Printf.sprintf "s0: a := %b if %s | s1: b := %b if %s" v0 (pp_kguard g0) v1 (pp_kguard g1)

let build_kbp ((g0, v0), (g1, v1)) =
  let open Kpt_core in
  let sp = Space.create () in
  let a = Space.bool_var sp "a" in
  let b = Space.bool_var sp "b" in
  let pa = Kpt_unity.Process.make "PA" [ a ] in
  let pb = Kpt_unity.Process.make "PB" [ b ] in
  let guard ~own ~other = function
    | GSelf -> Kform.base (Expr.var own)
    | GKOther -> Kform.k (if own == a then "PA" else "PB") (Kform.base (Expr.var other))
    | GKNotOther ->
        Kform.k (if own == a then "PA" else "PB") (Kform.knot (Kform.base (Expr.var other)))
    | GPlain v -> Kform.base (if v then Expr.tru else Expr.fls)
  in
  let s0 =
    Kbp.kstmt ~name:"s0" ~guard:(guard ~own:a ~other:b g0)
      [ (a, if v0 then Expr.tru else Expr.fls) ]
  in
  let s1 =
    Kbp.kstmt ~name:"s1" ~guard:(guard ~own:b ~other:a g1)
      [ (b, if v1 then Expr.tru else Expr.fls) ]
  in
  ( sp,
    Kbp.make sp ~name:"random_kbp"
      ~init:Expr.(not_ (var a) &&& not_ (var b))
      ~processes:[ pa; pb ] [ s0; s1 ] )

let arbitrary_kbp = QCheck.make ~print:print_kbp kbp_gen

let prop_kbp_solutions_are_fixpoints =
  QCheck.Test.make ~count:100 ~name:"kbp: every returned solution satisfies Ĝ(X) = X"
    arbitrary_kbp (fun syn ->
      let sp, kbp = build_kbp syn in
      List.for_all
        (fun x -> Bdd.equal (Kpt_core.Kbp.g_operator kbp x) (Pred.normalize sp x))
        (Kpt_core.Kbp.solutions kbp))

let prop_kbp_iterate_sound =
  QCheck.Test.make ~count:100 ~name:"kbp: a converged iteration is among the solutions"
    arbitrary_kbp (fun syn ->
      let sp, kbp = build_kbp syn in
      match Kpt_core.Kbp.solve kbp with
      | Kpt_core.Kbp.Converged { si = x; _ } ->
          List.exists (fun y -> Pred.equivalent sp x y) (Kpt_core.Kbp.solutions kbp)
      | _ -> true)

let prop_kbp_standard_unique =
  QCheck.Test.make ~count:100 ~name:"kbp: knowledge-free KBPs have exactly one solution"
    arbitrary_kbp (fun syn ->
      let _, kbp = build_kbp syn in
      QCheck.assume (Kpt_core.Kbp.is_standard kbp);
      List.length (Kpt_core.Kbp.solutions kbp) = 1)

(* Random KBPs whose bodies can be undefined: a counter [n : nat(k)] and a
   flag [a], two statements with random guards (knowledge or plain) and
   bodies drawn from increments (which overflow at the top), resets and
   flips.  The symbolic universe must equal the explicit BFS. *)
type ubody = Uinc of int | Ureset | Uflip | Uset_top

let pp_ubody = function
  | Uinc c -> Printf.sprintf "n := n + %d" c
  | Ureset -> "n := 0"
  | Uflip -> "a := ~a"
  | Uset_top -> "a := n = max"

let arbitrary_universe_kbp =
  let open QCheck.Gen in
  let body = oneof [ map (fun c -> Uinc c) (int_range 1 2); oneofl [ Ureset; Uflip; Uset_top ] ] in
  let stmt = pair body (oneofl [ GSelf; GKOther; GKNotOther; GPlain true ]) in
  QCheck.make
    ~print:(fun (k, stmts) ->
      Printf.sprintf "nat(%d): %s" k
        (String.concat " | "
           (List.map (fun (b, g) -> pp_ubody b ^ " if " ^ pp_kguard g) stmts)))
    (pair (int_range 1 5) (list_size (int_range 1 3) stmt))

let build_universe_kbp (k, stmts) =
  let open Kpt_core in
  let sp = Space.create () in
  let n = Space.nat_var sp "n" ~max:k in
  let a = Space.bool_var sp "a" in
  let guard = function
    | GSelf -> Kform.base (Expr.var a)
    | GKOther -> Kform.k "PA" (Kform.base Expr.(var n === nat 0))
    | GKNotOther -> Kform.k "PN" (Kform.knot (Kform.base (Expr.var a)))
    | GPlain v -> Kform.base (if v then Expr.tru else Expr.fls)
  in
  let assign = function
    | Uinc c -> (n, Expr.(var n +! nat c))
    | Ureset -> (n, Expr.nat 0)
    | Uflip -> (a, Expr.(not_ (var a)))
    | Uset_top -> (a, Expr.(var n === nat k))
  in
  Kbp.make sp ~name:"random_universe"
    ~init:Expr.(var n === nat 0 &&& not_ (var a))
    ~processes:[ Kpt_unity.Process.make "PA" [ a ]; Kpt_unity.Process.make "PN" [ n ] ]
    (List.mapi
       (fun i (b, g) -> Kbp.kstmt ~name:(Printf.sprintf "s%d" i) ~guard:(guard g) [ assign b ])
       stmts)

let prop_kbp_universe_equals_oracle =
  QCheck.Test.make ~count:100 ~name:"kbp: symbolic universe = explicit BFS oracle"
    arbitrary_universe_kbp (fun syn -> Oracle_universe.agrees (build_universe_kbp syn))

(* ---- surface syntax: print ∘ parse round trip ----------------------------- *)

let surface_expr_gen =
  let open QCheck.Gen in
  let mk = Kpt_syntax.Ast.mk in
  let ident = oneofl [ "alpha"; "beta"; "gamma" ] in
  let rec go size =
    if size <= 1 then
      oneof
        [
          return (mk Kpt_syntax.Ast.Etrue);
          return (mk Kpt_syntax.Ast.Efalse);
          map (fun n -> mk (Kpt_syntax.Ast.Enum n)) (int_bound 9);
          map (fun s -> mk (Kpt_syntax.Ast.Eident s)) ident;
        ]
    else
      let sub = go (size / 2) in
      oneof
        [
          map (fun a -> mk (Kpt_syntax.Ast.Enot a)) (go (size - 1));
          map2 (fun a b -> mk (Kpt_syntax.Ast.Eand (a, b))) sub sub;
          map2 (fun a b -> mk (Kpt_syntax.Ast.Eor (a, b))) sub sub;
          map2 (fun a b -> mk (Kpt_syntax.Ast.Eimp (a, b))) sub sub;
          map2 (fun a b -> mk (Kpt_syntax.Ast.Eiff (a, b))) sub sub;
          map2 (fun a b -> mk (Kpt_syntax.Ast.Eeq (a, b))) sub sub;
          map2 (fun a b -> mk (Kpt_syntax.Ast.Elt (a, b))) sub sub;
          map2 (fun a b -> mk (Kpt_syntax.Ast.Eadd (a, b))) sub sub;
          map2 (fun a b -> mk (Kpt_syntax.Ast.Esub (a, b))) sub sub;
          map2 (fun i a -> mk (Kpt_syntax.Ast.Eindex (i, a))) ident sub;
          map2 (fun pname a -> mk (Kpt_syntax.Ast.Eknow (pname, a))) ident sub;
        ]
  in
  QCheck.Gen.sized (fun s -> go (min s 14))

let prop_surface_roundtrip =
  QCheck.Test.make ~count:300 ~name:"syntax: parse ∘ print = id on expressions"
    (QCheck.make
       ~print:(Format.asprintf "%a" Kpt_syntax.Ast.pp_expr)
       surface_expr_gen)
    (fun e ->
      let printed = Format.asprintf "%a" Kpt_syntax.Ast.pp_expr e in
      let reparsed = Kpt_syntax.Parser.expr_of_string printed in
      let printed2 = Format.asprintf "%a" Kpt_syntax.Ast.pp_expr reparsed in
      (* compare via printing: the AST may differ in reassociation-free
         ways only if the printer is ambiguous — it must not be *)
      printed = printed2)

let suite =
  Helpers.qtests
    [
      prop_bdd_sound;
      prop_bdd_canonical;
      prop_bdd_quantifier_duality;
      prop_bdd_sat_count;
      prop_bdd_relational_product;
      prop_bdd_quant_cache_across_calls;
      prop_bdd_swap_pairs;
      prop_bdd_diff_implies;
      prop_wp_equals_complement_form;
      prop_expr_compile_agrees;
      prop_expr_compile_agrees_nat;
      prop_expr_typing_total;
      prop_sst_closure;
      prop_sst_monotone;
      prop_frontier_sst_equals_naive;
      prop_chained_sst_equals_frontier;
      prop_ensures_implies_leadsto;
      prop_fair_avoid_equals_oracle;
      prop_counterexample_is_first_state;
      prop_states_of_equals_filter;
      prop_unless_conjunction_sound;
      prop_s5_random_si;
      prop_k_conjunctive_random_si;
      prop_wcyl_galois;
      prop_kbp_solutions_are_fixpoints;
      prop_kbp_iterate_sound;
      prop_kbp_standard_unique;
      prop_kbp_universe_equals_oracle;
      prop_surface_roundtrip;
    ]

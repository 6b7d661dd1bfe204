open Kpt_predicate

let m () = Bdd.create ()

let check_tt msg expected bdd ~nvars =
  Alcotest.(check (list int)) msg expected (Helpers.truth_table bdd ~nvars)

let test_constants () =
  let m = m () in
  Alcotest.(check bool) "true is true" true (Bdd.is_true (Bdd.tru m));
  Alcotest.(check bool) "false is false" true (Bdd.is_false (Bdd.fls m));
  Alcotest.(check bool) "true <> false" false (Bdd.equal (Bdd.tru m) (Bdd.fls m))

let test_var () =
  let m = m () in
  check_tt "var 0 over 2 vars" [ 1; 3 ] (Bdd.var m 0) ~nvars:2;
  check_tt "nvar 0 over 2 vars" [ 0; 2 ] (Bdd.nvar m 0) ~nvars:2;
  Alcotest.(check bool) "var canonical" true (Bdd.equal (Bdd.var m 3) (Bdd.var m 3))

let test_and_or () =
  let m = m () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  check_tt "a and b" [ 3 ] (Bdd.and_ m a b) ~nvars:2;
  check_tt "a or b" [ 1; 2; 3 ] (Bdd.or_ m a b) ~nvars:2;
  check_tt "a xor b" [ 1; 2 ] (Bdd.xor m a b) ~nvars:2;
  check_tt "a imp b" [ 0; 2; 3 ] (Bdd.imp m a b) ~nvars:2;
  check_tt "a iff b" [ 0; 3 ] (Bdd.iff m a b) ~nvars:2

let test_not_involution () =
  let m = m () in
  let st = Helpers.rng () in
  for _ = 1 to 50 do
    let p = Helpers.random_formula st m ~nvars:6 ~depth:5 in
    Alcotest.(check bool) "not not p = p" true (Bdd.equal p (Bdd.not_ m (Bdd.not_ m p)))
  done

let test_canonicity () =
  let m = m () in
  let st = Helpers.rng () in
  (* Same truth table => same node. *)
  for _ = 1 to 100 do
    let p = Helpers.random_formula st m ~nvars:5 ~depth:4 in
    let q = Helpers.random_formula st m ~nvars:5 ~depth:4 in
    let same_tt = Helpers.truth_table p ~nvars:5 = Helpers.truth_table q ~nvars:5 in
    Alcotest.(check bool) "canonicity" same_tt (Bdd.equal p q)
  done

let test_ite () =
  let m = m () in
  let st = Helpers.rng () in
  for _ = 1 to 50 do
    let c = Helpers.random_formula st m ~nvars:4 ~depth:3 in
    let a = Helpers.random_formula st m ~nvars:4 ~depth:3 in
    let b = Helpers.random_formula st m ~nvars:4 ~depth:3 in
    let direct = Bdd.ite m c a b in
    let expanded = Bdd.or_ m (Bdd.and_ m c a) (Bdd.and_ m (Bdd.not_ m c) b) in
    Alcotest.(check bool) "ite = (c∧a)∨(¬c∧b)" true (Bdd.equal direct expanded)
  done

let test_restrict () =
  let m = m () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let p = Bdd.xor m a b in
  check_tt "restrict x0:=true" [ 0; 1 ] (Bdd.restrict m p 0 true) ~nvars:2;
  check_tt "restrict x0:=false" [ 2; 3 ] (Bdd.restrict m p 0 false) ~nvars:2

let test_quantifiers () =
  let m = m () in
  let st = Helpers.rng () in
  for _ = 1 to 40 do
    let p = Helpers.random_formula st m ~nvars:5 ~depth:4 in
    let v = Random.State.int st 5 in
    let ex = Bdd.or_ m (Bdd.restrict m p v false) (Bdd.restrict m p v true) in
    let fa = Bdd.and_ m (Bdd.restrict m p v false) (Bdd.restrict m p v true) in
    Alcotest.(check bool) "exists = or of cofactors" true
      (Bdd.equal (Bdd.exists m (Bdd.cube m [ v ]) p) ex);
    Alcotest.(check bool) "forall = and of cofactors" true
      (Bdd.equal (Bdd.forall m (Bdd.cube m [ v ]) p) fa)
  done

let test_quantifier_multi () =
  let m = m () in
  let st = Helpers.rng () in
  for _ = 1 to 30 do
    let p = Helpers.random_formula st m ~nvars:6 ~depth:5 in
    let vs = [ 1; 3; 4 ] in
    let seq = List.fold_left (fun acc v -> Bdd.exists m (Bdd.cube m [ v ]) acc) p vs in
    Alcotest.(check bool) "multi-var exists = sequential" true
      (Bdd.equal (Bdd.exists m (Bdd.cube m vs) p) seq);
    let seqf = List.fold_left (fun acc v -> Bdd.forall m (Bdd.cube m [ v ]) acc) p vs in
    Alcotest.(check bool) "multi-var forall = sequential" true
      (Bdd.equal (Bdd.forall m (Bdd.cube m vs) p) seqf)
  done

let test_and_exists () =
  let m = m () in
  let st = Helpers.rng () in
  for _ = 1 to 40 do
    let a = Helpers.random_formula st m ~nvars:6 ~depth:4 in
    let b = Helpers.random_formula st m ~nvars:6 ~depth:4 in
    let vs = [ 0; 2; 5 ] in
    Alcotest.(check bool) "and_exists = exists of and" true
      (Bdd.equal (Bdd.and_exists m (Bdd.cube m vs) a b) (Bdd.exists m (Bdd.cube m vs) (Bdd.and_ m a b)))
  done

let test_rename () =
  let m = m () in
  let a = Bdd.var m 0 and b = Bdd.var m 2 in
  let p = Bdd.and_ m a (Bdd.not_ m b) in
  let q = Bdd.rename m (fun v -> v + 1) p in
  check_tt "renamed" (Helpers.truth_table (Bdd.and_ m (Bdd.var m 1) (Bdd.not_ m (Bdd.var m 3))) ~nvars:4)
    q ~nvars:4

let test_rename_roundtrip () =
  let m = m () in
  let st = Helpers.rng () in
  for _ = 1 to 30 do
    let p = Helpers.random_formula st m ~nvars:5 ~depth:4 in
    (* Shift onto odd positions and back: the interleaving renaming used by
       Space.to_next/to_current. *)
    let q = Bdd.rename m (fun v -> (2 * v) + 1) p in
    let r = Bdd.rename m (fun v -> (v - 1) / 2) q in
    Alcotest.(check bool) "rename roundtrip" true (Bdd.equal p r)
  done

let test_support () =
  let m = m () in
  let p = Bdd.and_ m (Bdd.var m 1) (Bdd.or_ m (Bdd.var m 4) (Bdd.nvar m 2)) in
  Alcotest.(check (list int)) "support" [ 1; 2; 4 ] (Bdd.support m p);
  Alcotest.(check bool) "depends_on 4" true (Bdd.depends_on m p 4);
  Alcotest.(check bool) "not depends_on 3" false (Bdd.depends_on m p 3);
  (* x ∨ ¬x does not depend on x *)
  let q = Bdd.or_ m (Bdd.var m 0) (Bdd.nvar m 0) in
  Alcotest.(check bool) "tautology support empty" false (Bdd.depends_on m q 0)

let test_implies () =
  let m = m () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  Alcotest.(check bool) "a∧b ⇒ a" true (Bdd.implies m (Bdd.and_ m a b) a);
  Alcotest.(check bool) "a ⇏ a∧b" false (Bdd.implies m a (Bdd.and_ m a b))

let test_conj_disj () =
  let m = m () in
  Alcotest.(check bool) "empty conj" true (Bdd.is_true (Bdd.conj m []));
  Alcotest.(check bool) "empty disj" true (Bdd.is_false (Bdd.disj m []));
  let vs = [ Bdd.var m 0; Bdd.var m 1; Bdd.var m 2 ] in
  check_tt "conj" [ 7 ] (Bdd.conj m vs) ~nvars:3;
  check_tt "disj" [ 1; 2; 3; 4; 5; 6; 7 ] (Bdd.disj m vs) ~nvars:3

let test_size_caches () =
  let m = m () in
  let p = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check int) "size of conjunction" 2 (Bdd.size m p);
  Bdd.clear_caches m;
  (* Nodes survive a cache clear. *)
  let q = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check bool) "hash-consing survives clear_caches" true (Bdd.equal p q)

(* The packed direct-mapped op-cache overwrites slots on collision; a
   2-slot manager forces collisions on essentially every operation, so any
   stale-hit bug (a lossy slot returned for the wrong operands) shows up as
   a truth-table mismatch against a comfortably-sized manager. *)
let test_opcache_collisions () =
  let tiny = Bdd.create ~cache_size:2 () in
  let big = Bdd.create () in
  let st1 = Helpers.rng () and st2 = Helpers.rng () in
  for _ = 1 to 60 do
    let p_tiny = Helpers.random_formula st1 tiny ~nvars:6 ~depth:6 in
    let p_big = Helpers.random_formula st2 big ~nvars:6 ~depth:6 in
    Alcotest.(check (list int))
      "tiny cache agrees with default cache"
      (Helpers.truth_table p_big ~nvars:6)
      (Helpers.truth_table p_tiny ~nvars:6)
  done;
  (* ite under collisions too *)
  for _ = 1 to 30 do
    let f m st =
      let c = Helpers.random_formula st m ~nvars:5 ~depth:4 in
      let a = Helpers.random_formula st m ~nvars:5 ~depth:4 in
      let b = Helpers.random_formula st m ~nvars:5 ~depth:4 in
      Helpers.truth_table (Bdd.ite m c a b) ~nvars:5
    in
    Alcotest.(check (list int)) "ite under collisions" (f big st2) (f tiny st1)
  done;
  (* diff and the containment test borrow the and/imp tags (z = 1) *)
  for _ = 1 to 30 do
    let f m st =
      let a = Helpers.random_formula st m ~nvars:5 ~depth:4 in
      let b = Helpers.random_formula st m ~nvars:5 ~depth:4 in
      ignore (Bdd.and_ m a b, Bdd.imp m a b);
      (Helpers.truth_table (Bdd.diff m a b) ~nvars:5, Bdd.implies m a b)
    in
    Alcotest.(check (pair (list int) bool)) "diff/implies under collisions" (f big st2) (f tiny st1)
  done

let test_opcache_clear_midstream () =
  let m = Bdd.create ~cache_size:4 () in
  let st = Helpers.rng () in
  for _ = 1 to 20 do
    let p = Helpers.random_formula st m ~nvars:5 ~depth:4 in
    let q = Helpers.random_formula st m ~nvars:5 ~depth:4 in
    let before = Bdd.and_ m p q in
    Bdd.clear_caches m;
    (* clearing the lossy cache must not change results, and hash-consing
       must still find the very same node *)
    let after = Bdd.and_ m p q in
    Alcotest.(check bool) "same node after clear_caches" true (Bdd.equal before after)
  done

let test_balanced_folds () =
  let m = m () in
  let st = Helpers.rng () in
  for _ = 1 to 40 do
    let n = 1 + Random.State.int st 9 in
    let ps = List.init n (fun _ -> Helpers.random_formula st m ~nvars:6 ~depth:3) in
    let linear_and = List.fold_left (Bdd.and_ m) (Bdd.tru m) ps in
    let linear_or = List.fold_left (Bdd.or_ m) (Bdd.fls m) ps in
    Alcotest.(check bool) "conj = linear and-fold" true
      (Bdd.equal (Bdd.conj m ps) linear_and);
    Alcotest.(check bool) "disj = linear or-fold" true
      (Bdd.equal (Bdd.disj m ps) linear_or)
  done;
  Alcotest.(check bool) "empty conj" true (Bdd.is_true (Bdd.conj m []));
  Alcotest.(check bool) "empty disj" true (Bdd.is_false (Bdd.disj m []))

let test_depends_on_support () =
  let m = m () in
  let st = Helpers.rng () in
  for _ = 1 to 60 do
    let p = Helpers.random_formula st m ~nvars:6 ~depth:5 in
    let sup = Bdd.support m p in
    for v = 0 to 6 do
      Alcotest.(check bool)
        (Printf.sprintf "depends_on %d = support membership" v)
        (List.mem v sup) (Bdd.depends_on m p v)
    done
  done

(* The move refuses a predicate that reads a moved bit together with its
   partner on one path: a one-pass rebuild would break the order. *)
let test_swap_partner_in_support () =
  let m = m () in
  let both = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "current and next bit of one pair" true
    (raises (fun () -> Bdd.swap_pairs m [ 0 ] both));
  Alcotest.(check bool) "moving the next bit instead" true
    (raises (fun () -> Bdd.swap_pairs m [ 1 ] both));
  (* a different pair's partner is harmless *)
  let p = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 3) in
  Alcotest.(check bool) "disjoint pairs move" true
    (Bdd.equal (Bdd.swap_pairs m [ 0 ] p) (Bdd.and_ m (Bdd.var m 1) (Bdd.var m 3)));
  Bdd.reorder m;
  Alcotest.(check bool) "still refused after a reorder" true
    (raises (fun () -> Bdd.swap_pairs m [ 0 ] both))

(* A mixed cube is one literal per variable: a variable in both the
   quantified and the moved list has no literal to be, so the
   constructor refuses it rather than keep either one (before and after
   a reorder permutes the levels its sort is keyed on).  Duplicates
   within one list are one literal. *)
let test_cube_quantify_and_move () =
  let m = m () in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let p = Bdd.conj m [ Bdd.var m 0; Bdd.var m 3; Bdd.var m 4 ] in
  let check_refusals when_ =
    Alcotest.(check bool) ("same variable in both lists " ^ when_) true
      (raises (fun () -> Bdd.cube m ~move:[ 3; 4 ] [ 0; 4 ]));
    Alcotest.(check bool) ("a lone variable in both lists " ^ when_) true
      (raises (fun () -> Bdd.cube m ~move:[ 5 ] [ 5 ]))
  in
  check_refusals "before a reorder";
  Alcotest.(check bool) "duplicates within one list" true
    (Bdd.equal
       (Bdd.exists m (Bdd.cube m ~move:[ 3; 3 ] [ 0; 0 ]) p)
       (Bdd.exists m (Bdd.cube m ~move:[ 3 ] [ 0 ]) p));
  Alcotest.(check bool) "quantify 0, move 3 to 2" true
    (Bdd.equal
       (Bdd.exists m (Bdd.cube m ~move:[ 3 ] [ 0 ]) p)
       (Bdd.and_ m (Bdd.var m 2) (Bdd.var m 4)));
  Bdd.reorder m;
  check_refusals "after a reorder"

(* Cubes may name variables no node mentions yet, and quantifying them
   is a no-op on the operands. *)
let test_quant_unregistered () =
  let m = m () in
  let p = Bdd.or_ m (Bdd.var m 0) (Bdd.var m 2) in
  Alcotest.(check bool) "∃ over unregistered variables only" true
    (Bdd.equal (Bdd.exists m (Bdd.cube m [ 40; 41 ]) p) p);
  Alcotest.(check bool) "∀ over a mix" true
    (Bdd.equal (Bdd.forall m (Bdd.cube m [ 0; 57 ]) p) (Bdd.var m 2));
  Alcotest.(check bool) "and_exists past the registered range" true
    (Bdd.equal (Bdd.and_exists m (Bdd.cube m [ 2; 99 ]) p (Bdd.nvar m 0)) (Bdd.nvar m 0));
  Alcotest.(check bool) "swap over an unregistered pair" true
    (Bdd.equal (Bdd.swap_pairs m [ 70 ] p) p);
  (* the space-level case: declared variables no BDD has touched yet *)
  let sp = Space.create () in
  let a = Space.bool_var sp "a" in
  let _ = List.init 6 (fun i -> Space.nat_var sp (Printf.sprintf "n%d" i) ~max:5) in
  let pa = Bitvec.eq_const (Space.manager sp) (Space.cur_vec sp a) 1 in
  Alcotest.(check bool) "depends_only_on with untouched variables" true
    (Pred.depends_only_on sp pa [ a ])

(* ---- the sweep and id reuse -------------------------------------------------

   Nodes are ids into a store the OCaml collector never sees, so the
   sweep that brackets a sift must find the live nodes itself, from the
   handles user code still holds.  Garbage — results nobody holds any
   more — is freed and its ids are reused; a held handle keeps its node,
   its id and its function. *)

let nv = 12

(* A function of [nv] variables that differs from seed to seed: the xor
   of a seeded subset of variables, or'ed with a seeded two-literal term. *)
let seeded m k =
  let st = Random.State.make [| k |] in
  let v () = Bdd.var m (Random.State.int st nv) in
  let parity = List.init 5 (fun _ -> v ()) |> List.fold_left (Bdd.xor m) (Bdd.fls m) in
  Bdd.or_ m parity (Bdd.and_ m (v ()) (Bdd.not_ m (v ())))

let test_sweep_reclaims_garbage () =
  let m = m () in
  let held = List.init 8 (seeded m) in
  let tables = List.map (fun h -> Helpers.truth_table h ~nvars:nv) held in
  let uids = List.map Bdd.uid held in
  for k = 100 to 2099 do
    ignore (Sys.opaque_identity (seeded m k))
  done;
  let before = (Bdd.stats m).Bdd.live_nodes in
  Bdd.reorder m;
  let after = (Bdd.stats m).Bdd.live_nodes in
  if not (after < before) then Alcotest.failf "live nodes %d -> %d: nothing reclaimed" before after;
  List.iteri
    (fun k h ->
      Alcotest.(check (list int)) "held handle keeps its truth table" (List.nth tables k)
        (Helpers.truth_table h ~nvars:nv);
      Alcotest.(check int) "held handle keeps its id" (List.nth uids k) (Bdd.uid h);
      Alcotest.(check bool) "rebuilding finds the held node" true (Bdd.equal h (seeded m k)))
    held

let test_reused_ids_never_alias () =
  let m = m () in
  let held = List.init 8 (seeded m) in
  let tables = List.map (fun h -> Helpers.truth_table h ~nvars:nv) held in
  let dropped = Hashtbl.create 4096 in
  for k = 100 to 2099 do
    Hashtbl.replace dropped (Bdd.uid (seeded m k)) ()
  done;
  Bdd.reorder m;
  (* fresh functions after the sweep: some land on recycled ids, and none
     may equal a held handle unless it denotes the same function *)
  let reused = ref 0 in
  for k = 5000 to 6999 do
    let f = seeded m k in
    if Hashtbl.mem dropped (Bdd.uid f) then incr reused;
    let tf = Helpers.truth_table f ~nvars:nv in
    List.iter2
      (fun h th ->
        Alcotest.(check bool) "id equality is function equality" (tf = th) (Bdd.equal f h))
      held tables
  done;
  if !reused = 0 then Alcotest.fail "no id was reused after the sweep";
  List.iter2
    (fun h th -> Alcotest.(check (list int)) "held truth table" th (Helpers.truth_table h ~nvars:nv))
    held tables

(* Past 2^20 ids, the range the unique-table key once packed only.
   Every [ite x a b] below has [x] above [a] and [b], so it makes the
   one node (x, b, a): four seed functions at var 6, then all distinct
   pairs of the level below at vars 5, 4 and 3 (65 536 functions), then
   rows of pairs of those at var 2 and var 1 until ids pass 2^20, and
   var-0 nodes over every pair of 64 of those.  With the op-cache
   cleared, rebuilding a node by another formula has only the unique
   table to find it in. *)
let test_canonical_past_2_20 () =
  let m = Bdd.create () in
  let limit = 1 lsl 20 in
  let level v fs =
    let x = Bdd.var m v in
    fs
    @ List.concat_map
        (fun a ->
          List.filter_map (fun b -> if Bdd.equal a b then None else Some (Bdd.ite m x a b)) fs)
        fs
  in
  let seeds = [ Bdd.fls m; Bdd.tru m; Bdd.var m 6; Bdd.nvar m 6 ] in
  let s = Array.of_list (level 3 (level 4 (level 5 seeds))) in
  let n = Array.length s in
  Alcotest.(check int) "65 536 functions below var 3" 65536 n;
  (* 9 rows at var 2, 8 at var 1; keep the last 64 nodes of the last row *)
  let past = ref [] in
  List.iter
    (fun (v, rows) ->
      let x = Bdd.var m v in
      for i = 0 to rows - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let f = Bdd.ite m x s.(i) s.(j) in
            if v = 1 && i = rows - 1 && j >= n - 64 then past := f :: !past
          end
        done
      done)
    [ (2, 9); (1, 8) ];
  Alcotest.(check bool) "the last 64 var-1 nodes have ids past 2^20" true
    (List.for_all (fun f -> Bdd.uid f >= limit) !past);
  let x0 = Bdd.var m 0 in
  let tops =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if Bdd.equal a b then None else Some (a, b, Bdd.ite m x0 a b))
          !past)
      !past
  in
  Bdd.clear_caches m;
  List.iter
    (fun (a, b, f) ->
      let again = Bdd.or_ m (Bdd.and_ m x0 a) (Bdd.diff m b x0) in
      Alcotest.(check int) "rebuilt by another formula: the same id" (Bdd.uid f) (Bdd.uid again);
      Alcotest.(check (pair int int))
        "its children are the two it was built from"
        (Bdd.uid a, Bdd.uid b)
        (Bdd.uid (Bdd.restrict m f 0 true), Bdd.uid (Bdd.restrict m f 0 false)))
    tops

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "variables" `Quick test_var;
    Alcotest.test_case "binary operators" `Quick test_and_or;
    Alcotest.test_case "negation involution" `Quick test_not_involution;
    Alcotest.test_case "canonicity" `Quick test_canonicity;
    Alcotest.test_case "ite" `Quick test_ite;
    Alcotest.test_case "restrict" `Quick test_restrict;
    Alcotest.test_case "single-var quantifiers" `Quick test_quantifiers;
    Alcotest.test_case "multi-var quantifiers" `Quick test_quantifier_multi;
    Alcotest.test_case "relational product" `Quick test_and_exists;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "rename roundtrip" `Quick test_rename_roundtrip;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "implies" `Quick test_implies;
    Alcotest.test_case "conj/disj" `Quick test_conj_disj;
    Alcotest.test_case "size and caches" `Quick test_size_caches;
    Alcotest.test_case "op-cache under forced collisions" `Quick test_opcache_collisions;
    Alcotest.test_case "op-cache clear mid-stream" `Quick test_opcache_clear_midstream;
    Alcotest.test_case "balanced conj/disj folds" `Quick test_balanced_folds;
    Alcotest.test_case "depends_on vs support" `Quick test_depends_on_support;
    Alcotest.test_case "swap refuses a partner in the support" `Quick
      test_swap_partner_in_support;
    Alcotest.test_case "a cube refuses a variable both quantified and moved" `Quick
      test_cube_quantify_and_move;
    Alcotest.test_case "quantifying unregistered variables" `Quick test_quant_unregistered;
    Alcotest.test_case "a sift's sweep reclaims garbage, held handles keep their function"
      `Quick test_sweep_reclaims_garbage;
    Alcotest.test_case "ids reused after a sweep never alias a held handle" `Quick
      test_reused_ids_never_alias;
    Alcotest.test_case "canonical past 2^20 node ids" `Quick test_canonical_past_2_20;
  ]

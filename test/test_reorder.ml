(* Dynamic variable reordering: semantic transparency, canonicity, and
   the op-cache sizing fix.

   The contract under test is strong: a reorder may change every node's
   var/low/high fields, but no handle's denotation, and hash-consing
   keeps working afterwards (building an equal function yields the
   {e same} node).  The truth-table comparisons pin the first half, the
   physical-equality rebuilds the second. *)

open Kpt_predicate
module B = Bdd
module Expr = Kpt_unity.Expr

(* The order-sensitive workhorse: ⋀ i < n : x_i = x_{n+i}.  Linear with
   the pairs interleaved, exponential (2^n internal waist) with the
   blocks separated — so building it over separated blocks and sifting
   must shrink it, and the shrink is observable via [B.size]. *)
let mirrored m n =
  B.conj m (List.init n (fun i -> B.iff m (B.var m i) (B.var m (n + i))))

let test_manual_reorder_truth_tables () =
  let st = Helpers.rng () in
  for _case = 1 to 20 do
    let m = B.create () in
    let nvars = 8 in
    let f = Helpers.random_formula st m ~nvars ~depth:5 in
    let g = Helpers.random_formula st m ~nvars ~depth:5 in
    let before_f = Helpers.truth_table f ~nvars in
    let before_g = Helpers.truth_table g ~nvars in
    B.reorder m;
    Alcotest.(check (list int)) "f unchanged by reorder" before_f (Helpers.truth_table f ~nvars);
    Alcotest.(check (list int)) "g unchanged by reorder" before_g (Helpers.truth_table g ~nvars);
    (* canonicity survives: an operation on the reordered nodes matches
       the truth-table combine *)
    let fg = B.and_ m f g in
    Alcotest.(check (list int))
      "and after reorder"
      (List.filter (fun c -> List.mem c before_g) before_f)
      (Helpers.truth_table fg ~nvars)
  done

let test_reorder_canonicity_rebuild () =
  let m = B.create () in
  let n = 7 in
  let f = mirrored m n in
  B.reorder m;
  (* rebuilding the same function node-by-node must produce the same
     physical node — hash-consing is intact in the new order *)
  let f' = mirrored m n in
  Alcotest.(check bool) "rebuild is physically equal" true (B.equal f f');
  let g = B.not_ m (B.not_ m f) in
  Alcotest.(check bool) "double negation physically equal" true (B.equal f g)

let test_reorder_shrinks_mirrored () =
  let m = B.create () in
  let n = 9 in
  let f = mirrored m n in
  let before = B.size m f in
  B.reorder m;
  let after = B.size m f in
  Alcotest.(check bool)
    (Printf.sprintf "sifting shrinks mirrored function (%d -> %d)" before after)
    true
    (after < before);
  (* the sifted order is linear in n: a few nodes per pair (pair-group
     granularity leaves some slack over the ideal interleaving) *)
  Alcotest.(check bool) "post-reorder size is linear" true (after <= 10 * n)

let test_auto_trigger () =
  let ctx = Kpt_obs.Ctx.create () in
  Kpt_obs.Ctx.use ctx (fun () ->
      let m = B.create () in
      B.set_auto_reorder m ~threshold:2000 true;
      let f = mirrored m 11 in
      (* the build crosses the threshold; the next top-level op reorders *)
      let g = B.and_ m f (B.var m 0) in
      Alcotest.(check bool) "still correct" true
        (B.eval g (fun _ -> true) && not (B.eval g (fun i -> i = 0))));
  let runs = List.assoc_opt "bdd.reorder.runs" (Kpt_obs.Ctx.counters ctx) in
  Alcotest.(check bool) "auto reorder ran" true (match runs with Some r -> r > 0 | None -> false)

(* The trigger is tested only at the entry of an outermost operation:
   an operation that grows the table past the threshold finishes in the
   order it started with, and the next operation sifts before it runs. *)
let test_sift_waits_for_the_next_entry () =
  let ctx = Kpt_obs.Ctx.create () in
  let runs () =
    Option.value ~default:0 (List.assoc_opt "bdd.reorder.runs" (Kpt_obs.Ctx.counters ctx))
  in
  Kpt_obs.Ctx.use ctx (fun () ->
      let m = B.create () in
      let n = 11 in
      let half r =
        B.conj m
          (List.filter_map
             (fun i -> if i mod 2 = r then Some (B.iff m (B.var m i) (B.var m (n + i))) else None)
             (List.init n Fun.id))
      in
      let a = half 0 and b = half 1 in
      let threshold = (B.stats m).B.live_nodes + 1000 in
      B.set_auto_reorder m ~threshold true;
      (* one operation: the separated blocks give a ∧ b a 2^n waist *)
      let f = B.and_ m a b in
      Alcotest.(check bool) "the operation crossed the threshold" true
        ((B.stats m).B.live_nodes >= threshold);
      Alcotest.(check int) "no sift inside the crossing operation" 0 (runs ());
      let g = B.not_ m f in
      Alcotest.(check int) "the next outermost entry sifts" 1 (runs ());
      Alcotest.(check bool) "the result is still the complement" true
        (B.eval g (fun i -> i = 0) && not (B.eval g (fun _ -> true))))

let test_quantifiers_after_reorder () =
  let st = Helpers.rng () in
  for _case = 1 to 10 do
    let m = B.create () in
    let nvars = 8 in
    let f = Helpers.random_formula st m ~nvars ~depth:5 in
    let vs = [ 1; 4; 6 ] in
    let ex_before = Helpers.truth_table (B.exists m (B.cube m vs) f) ~nvars in
    let fa_before = Helpers.truth_table (B.forall m (B.cube m vs) f) ~nvars in
    B.reorder m;
    Alcotest.(check (list int)) "exists after reorder" ex_before
      (Helpers.truth_table (B.exists m (B.cube m vs) f) ~nvars);
    Alcotest.(check (list int)) "forall after reorder" fa_before
      (Helpers.truth_table (B.forall m (B.cube m vs) f) ~nvars);
    let g = Helpers.random_formula st m ~nvars ~depth:4 in
    Alcotest.(check bool) "and_exists = exists of and" true
      (B.equal (B.and_exists m (B.cube m vs) f g) (B.exists m (B.cube m vs) (B.and_ m f g)))
  done

let test_rename_after_reorder () =
  let m = B.create () in
  let n = 6 in
  (* interleaved current/next convention: pair (2k, 2k+1) *)
  let f =
    B.conj m (List.init n (fun k -> B.iff m (B.var m (2 * k)) (B.var m ((2 * (n - 1 - k)) + 1))))
  in
  let nvars = 2 * n in
  B.reorder m;
  let up = B.rename m (fun b -> b + 1) (B.exists m (B.cube m (List.init n (fun k -> (2 * k) + 1))) f) in
  let down = B.rename m (fun b -> b - 1) up in
  Alcotest.(check bool) "to_next/to_current round-trip" true
    (B.equal down (B.exists m (B.cube m (List.init n (fun k -> (2 * k) + 1))) f));
  ignore nvars

let test_rename_non_monotone_fallback () =
  let m = B.create () in
  (* force a real order change, then rename with a map that is monotone
     in index space but may not be in level space — the result must
     still be the substituted function *)
  let f = mirrored m 6 in
  B.reorder m;
  let g = B.and_ m (B.var m 0) (B.not_ m (B.var m 3)) in
  let swapped = B.rename m (fun v -> match v with 0 -> 3 | 3 -> 0 | v -> v) g in
  Alcotest.(check bool) "swap rename correct" true
    (B.eval swapped (fun i -> i = 3) && not (B.eval swapped (fun i -> i = 0)));
  ignore f

let test_counting_after_reorder () =
  let st = Helpers.rng () in
  for _case = 1 to 10 do
    let sp = Space.create () in
    let m = Space.manager sp in
    let nvars = 8 in
    let bs = Array.init nvars (fun i -> Space.bool_var sp (Printf.sprintf "b%d" i)) in
    let f = Helpers.random_formula st m ~nvars ~depth:5 in
    (* the same function over the state variables' current bits *)
    let p = B.rename m (fun i -> List.hd (Space.current_bits bs.(i))) f in
    let models = Helpers.truth_table f ~nvars in
    Space.reorder sp;
    Alcotest.(check (option int)) "sat_count_exact after reorder" (Some (List.length models))
      (Bigcount.to_int (B.sat_count_exact m ~nvars f));
    (* the symbolic state walk enumerates the same set on the sifted
       space, and first_state is its head *)
    let states = Space.states_of sp p in
    let code s = Array.fold_right (fun b acc -> (2 * acc) + b) s 0 in
    Alcotest.(check (list int)) "states_of after reorder" models
      (List.sort compare (List.map code states));
    Alcotest.(check bool) "first_state after reorder" true
      (Space.first_state sp p = match states with [] -> None | s :: _ -> Some s)
  done

let test_space_counting_after_reorder () =
  let sp = Space.create () in
  let x = Space.nat_var sp "x" ~max:4 in
  let y = Space.nat_var sp "y" ~max:4 in
  let z = Space.bool_var sp "z" in
  ignore z;
  let p = Expr.compile_bool sp Expr.(var x === var y) in
  let n0 = Bigcount.to_int (Space.count_states_exact sp p) in
  Space.reorder sp;
  Alcotest.(check (option int)) "count stable across reorder" n0
    (Bigcount.to_int (Space.count_states_exact sp p));
  Alcotest.(check (option int)) "count = enumeration" (Some (List.length (Space.states_of sp p)))
    n0

let test_op_cache_grow_floor () =
  (* the op-cache starts at 4096 slots and can grow at most once to the
     default 16384 cap — the grow-thrash fix *)
  let ctx = Kpt_obs.Ctx.create () in
  Kpt_obs.Ctx.use ctx (fun () ->
      let st = Helpers.rng () in
      let m = B.create () in
      for _ = 1 to 30 do
        ignore (Helpers.random_formula st m ~nvars:10 ~depth:6)
      done);
  let grows =
    match List.assoc_opt "bdd.op_cache.grows" (Kpt_obs.Ctx.counters ctx) with
    | Some g -> g
    | None -> 0
  in
  Alcotest.(check bool) (Printf.sprintf "at most one grow (saw %d)" grows) true (grows <= 1)

let test_bigcount_shift_right () =
  let open Bigcount in
  Alcotest.(check string) "2^40 >> 12" (to_string (pow2 28)) (to_string (shift_right (pow2 40) 12));
  Alcotest.(check string) "12·2^9 >> 9" "12" (to_string (shift_right (shift_left (of_int 12) 9) 9));
  Alcotest.(check string) "0 >> 5" "0" (to_string (shift_right zero 5));
  Alcotest.check_raises "odd >> 1 rejected" (Invalid_argument "Bigcount.shift_right: inexact")
    (fun () -> ignore (shift_right (of_int 3) 1))

let suite =
  [
    Alcotest.test_case "manual reorder preserves truth tables" `Quick
      test_manual_reorder_truth_tables;
    Alcotest.test_case "canonicity after reorder (rebuild)" `Quick test_reorder_canonicity_rebuild;
    Alcotest.test_case "sifting shrinks the mirrored function" `Quick test_reorder_shrinks_mirrored;
    Alcotest.test_case "auto-trigger fires and is correct" `Quick test_auto_trigger;
    Alcotest.test_case "auto sift waits for the next outermost entry" `Quick
      test_sift_waits_for_the_next_entry;
    Alcotest.test_case "quantifiers after reorder" `Quick test_quantifiers_after_reorder;
    Alcotest.test_case "pair rename after reorder" `Quick test_rename_after_reorder;
    Alcotest.test_case "non-monotone rename fallback" `Quick test_rename_non_monotone_fallback;
    Alcotest.test_case "counting/enumeration after reorder" `Quick test_counting_after_reorder;
    Alcotest.test_case "space counting across reorder" `Quick test_space_counting_after_reorder;
    Alcotest.test_case "op-cache grows at most once" `Quick test_op_cache_grow_floor;
    Alcotest.test_case "Bigcount.shift_right exact" `Quick test_bigcount_shift_right;
  ]

(* The monolithic transition relation of a statement, and the image and
   complement-form weakest precondition that [Stmt.sp]/[Stmt.wp] are
   checked against.  Built here, uncached, from the statement's guard and
   assignments; the library itself never forms it.

     T = (g ∧ ⋀_{v∈A} v' = rhs_v ∧ ⋀_{v∉A} v' = v) ∨ (¬g ∧ ⋀_v v' = v)

     sp.s.p = (∃V. p ∧ domain ∧ T)[V' := V]
     wp.s.p = ite(g, ¬∃V'. T ∧ (¬p)', p)

   There is no partition, no schedule and no [nofit] term: where the guard
   holds and some right-hand side does not fit its target's bits, [T] has
   no successor and the ∀ reading of wp holds vacuously.  Exact on every
   state, out-of-domain ones included, so the wp form is compared without
   normalising either side. *)

open Kpt_predicate
open Kpt_unity

let cubes sp =
  let m = Space.manager sp in
  let vars = Space.vars sp in
  ( Bdd.cube m (List.concat_map Space.current_bits vars),
    Bdd.cube m (List.concat_map Space.next_bits vars) )

let to_next sp p =
  Bdd.swap_pairs (Space.manager sp) (List.concat_map Space.current_bits (Space.vars sp)) p

let to_current sp p =
  Bdd.swap_pairs (Space.manager sp) (List.concat_map Space.next_bits (Space.vars sp)) p

let keeps sp v = Bitvec.eq (Space.manager sp) (Space.next_vec sp v) (Space.cur_vec sp v)
let identity sp = Bdd.conj (Space.manager sp) (List.map (keeps sp) (Space.vars sp))

let trans sp s =
  let m = Space.manager sp in
  let rhs_vec e =
    match Expr.compile sp e with Expr.Sint v -> v | Expr.Sbool b -> Bitvec.of_bits [| b |]
  in
  let assigned v = List.exists (fun (u, _) -> Space.idx u = Space.idx v) (Stmt.assigns s) in
  let fire =
    Bdd.conj m
      (List.map (fun (v, e) -> Bitvec.eq m (Space.next_vec sp v) (rhs_vec e)) (Stmt.assigns s)
      @ List.filter_map
          (fun v -> if assigned v then None else Some (keeps sp v))
          (Space.vars sp))
  in
  let g = Stmt.guard_pred sp s in
  Bdd.or_ m (Bdd.and_ m g fire) (Bdd.diff m (identity sp) g)

let image sp s p =
  let m = Space.manager sp in
  to_current sp
    (Bdd.and_exists m (fst (cubes sp)) (Bdd.and_ m p (Space.domain sp)) (trans sp s))

let complement sp s p =
  let m = Space.manager sp in
  let bad = Bdd.and_exists m (snd (cubes sp)) (trans sp s) (to_next sp (Bdd.not_ m p)) in
  Bdd.ite m (Stmt.guard_pred sp s) (Bdd.not_ m bad) p

(* The states [T] maps to themselves: [∃V'. T ∧ V' = V]. *)
let unchanged sp s =
  Bdd.and_exists (Space.manager sp) (snd (cubes sp)) (trans sp s) (identity sp)

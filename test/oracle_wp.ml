(* The complement form of the weakest precondition that [Stmt.wp] is
   checked against:

     wp.s.p = ite(g, ¬∃V'. T ∧ (¬p)', p)

   over the statement's monolithic transition relation [T = Stmt.trans]
   (update and frame conjoined), with no partition, no schedule and no
   [nofit] term: where the guard holds and some right-hand side does not
   fit its target's bits, [T] has no successor and the ∀ reading holds
   vacuously.  Exact on every state, out-of-domain ones included, so it
   is compared without normalising either side. *)

open Kpt_predicate
open Kpt_unity

let complement sp s p =
  let m = Space.manager sp in
  let bad =
    Bdd.and_exists m (Space.next_cube sp) (Stmt.trans sp s) (Space.to_next sp (Bdd.not_ m p))
  in
  Bdd.ite m (Stmt.guard_pred sp s) (Bdd.not_ m bad) p

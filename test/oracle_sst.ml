(* Reference iterations for the strongest stable predicate (eq. 3) that
   [Program.sst] is checked against.  Eq. 3 fixes only the least
   fixpoint, not the iteration order, so every order must return the
   identical canonical BDD.  Both report into no counter and consume no
   fuel: the engine's [sst.*] metrics stay its own. *)

open Kpt_predicate
open Kpt_unity

(* The full-set Kleene iteration x' = p ∨ x ∨ SP.x, eq. 3 read literally. *)
let naive prog p =
  let sp = Program.space prog in
  let m = Space.manager sp in
  let p = Pred.normalize sp p in
  let rec go x =
    let x' = Bdd.or_ m p (Bdd.or_ m x (Program.sp_pred prog x)) in
    if Bdd.equal x x' then x else go x'
  in
  go (Bdd.fls m)

(* The frontier (delta) iteration, unchained: SP is an exact image and
   distributes over disjunction, so each round applies every statement
   to the states the previous round added, [frontier = x' ∧ ¬x], and
   nothing else. *)
let frontier prog p =
  let sp = Program.space prog in
  let m = Space.manager sp in
  let p = Pred.normalize sp p in
  let rec go x frontier =
    if Bdd.is_false frontier then x
    else
      let fresh = Bdd.and_ m (Program.sp_pred prog frontier) (Bdd.not_ m x) in
      go (Bdd.or_ m x fresh) fresh
  in
  go p p

open Kpt_predicate
open Kpt_unity

let ef prog q =
  let space = Program.space prog in
  let m = Space.manager space in
  let q = Pred.normalize space q in
  let rec go x =
    let x' = Bdd.or_ m x (Pred.normalize space (Program.pre prog x)) in
    if Bdd.equal x x' then x else go x'
  in
  go q

let ag prog q =
  let space = Program.space prog in
  let m = Space.manager space in
  Bdd.and_ m (Space.domain space) (Bdd.not_ m (ef prog (Bdd.not_ m q)))

let eg_fair prog q =
  let m = Space.manager (Program.space prog) in
  Props.fair_avoid prog (Bdd.not_ m q)

let af_fair prog q =
  let space = Program.space prog in
  let m = Space.manager space in
  Bdd.and_ m (Program.si prog) (Bdd.not_ m (eg_fair prog (Bdd.not_ m q)))

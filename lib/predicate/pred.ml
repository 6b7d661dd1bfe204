let man = Space.manager

let valid sp p = Bdd.implies (man sp) (Space.domain sp) p
let holds_implies sp p q = Bdd.implies (man sp) (Bdd.and_ (man sp) (Space.domain sp) p) q
let equivalent sp p q = Bdd.implies (man sp) (Space.domain sp) (Bdd.iff (man sp) p q)
let normalize sp p = Bdd.and_ (man sp) p (Space.domain sp)

let complement_vars = Space.complement

(* Quantification ranges over type-correct values only: the cube of the
   quantified bits and the range-constraint predicate of the quantified
   variables are memoised per variable set in the space (the hot path of
   wcyl/K_i). *)
let forall_vars sp vs p =
  let m = man sp in
  let cube, local = Space.quant_data sp vs in
  Bdd.forall m cube (Bdd.imp m local p)

let exists_vars sp vs p =
  let m = man sp in
  let cube, local = Space.quant_data sp vs in
  Bdd.exists m cube (Bdd.and_ m local p)

let depends_only_on sp p vs =
  let outside = complement_vars sp vs in
  equivalent sp p (exists_vars sp outside p)

let random rng ?(density = 0.5) sp =
  let m = man sp in
  let acc = ref (Bdd.fls m) in
  Space.iter_states sp (fun st ->
      if Stdlib.Random.State.float rng 1.0 < density then
        acc := Bdd.or_ m !acc (Space.pred_of_state sp st));
  !acc

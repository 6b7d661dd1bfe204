open Kpt_predicate
open Kpt_unity

(* Fair leads-to observability: the gfp of [fair_avoid] proceeds in
   outer rounds (sweeps) over the statements, each running an EU per
   statement whose target is not [Z] itself; the sweep count, the EU
   steps (one EX each) and the survivors per sweep are what explain a
   slow liveness check. *)
let c_gfp_runs = Kpt_obs.counter "leadsto.gfp.runs"
let c_gfp_sweeps = Kpt_obs.counter "leadsto.gfp.sweeps"
let c_eu_steps = Kpt_obs.counter "leadsto.eu.steps"

type t =
  | Invariant of Bdd.t
  | Stable of Bdd.t
  | Unless of Bdd.t * Bdd.t
  | Ensures of Bdd.t * Bdd.t
  | Leadsto of Bdd.t * Bdd.t

let unless prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let si = Program.si prog in
  let lhs = Bdd.diff m (Bdd.and_ m si p) q in
  List.for_all
    (fun s -> Pred.holds_implies space lhs (Stmt.wp space s (Bdd.or_ m p q)))
    (Program.statements prog)

let ensures prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let si = Program.si prog in
  let lhs = Bdd.diff m (Bdd.and_ m si p) q in
  unless prog p q
  && List.exists
       (fun s -> Pred.holds_implies space lhs (Stmt.wp space s q))
       (Program.statements prog)

let stable prog p =
  let m = Space.manager (Program.space prog) in
  unless prog p (Bdd.fls m)

let invariant = Program.invariant

(* --- fair leads-to ------------------------------------------------------ *)

(* Emerson–Lei fair-EG under unconditional fairness.  A state can fairly
   avoid [q] iff it lies in the greatest [Z ⊆ SI ∧ ¬q] from which, for
   every statement [t], some path inside [Z] reaches a state whose
   [t]-successor is again in [Z]:

     Z = νZ. Z ∧ ⋀ₜ E[Z U (Z ∧ wp.t.Z)]

   Statements are deterministic and total, so [wp.t] is the exact
   pre-image along [t] and [EX Y = ⋁ₛ wp.s.Y] ({!Program.pre}).  The
   conjuncts are applied chaotically in statement order; one pass over
   them is a sweep.  When
   [Z ⊆ wp.t.Z] the target is [Z] itself and [E[Z U Z] = Z], so that EU
   and its pre-images are skipped. *)
let fair_avoid prog q =
  let space = Program.space prog in
  let m = Space.manager space in
  let stmts = Program.statements prog in
  let wp s y = Stmt.wp space s y in
  (* E[z U target] for [target ⊆ z]: pre-images distribute over ∨, so
     each step only needs the pre-image of the states it last added.
     Neither the frontier nor [z0] builds a complement: both are one
     [diff]. *)
  let eu z target steps =
    let rec grow reached frontier =
      Engine.checkpoint ();
      incr steps;
      Kpt_obs.incr c_eu_steps;
      let fresh = Bdd.diff m (Bdd.and_ m z (Program.pre prog frontier)) reached in
      if Bdd.is_false fresh then reached else grow (Bdd.or_ m reached fresh) fresh
    in
    grow target target
  in
  let z0 = Bdd.diff m (Program.si prog) q in
  Kpt_obs.incr c_gfp_runs;
  if Kpt_obs.enabled () then
    Kpt_obs.emit "leadsto.gfp"
      [ ("candidates", Space.count_states_of space z0); ("statements", List.length stmts) ];
  let rec sweep z k =
    Kpt_obs.incr c_gfp_sweeps;
    Engine.checkpoint ~fuel:1 ();
    let steps = ref 0 and skipped = ref 0 in
    let conjunct z s =
      let target = Bdd.and_ m z (wp s z) in
      if Bdd.equal target z then (incr skipped; z) else eu z target steps
    in
    let z' = List.fold_left conjunct z stmts in
    if Kpt_obs.enabled () then
      Kpt_obs.emit "leadsto.gfp.sweep"
        [
          ("sweep", k);
          ("alive", Space.count_states_of space z');
          ("eu_steps", !steps);
          ("eu_skipped", !skipped);
        ];
    if Bdd.equal z z' then z else sweep z' (k + 1)
  in
  sweep z0 1

let leads_to prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let danger = fair_avoid prog q in
  let start = Bdd.diff m (Bdd.and_ m (Program.si prog) p) q in
  (* A fair run from a reachable p-state misses q iff it can reach, inside
     ¬q, a state that fairly avoids q; because every state of the avoiding
     run itself avoids q, it suffices that the start can avoid q, i.e. is
     itself in the gfp. *)
  Bdd.is_false (Bdd.and_ m start danger)

let wlt prog q =
  let m = Space.manager (Program.space prog) in
  Bdd.or_ m q (Bdd.not_ m (fair_avoid prog q))

let holds prog = function
  | Invariant p -> invariant prog p
  | Stable p -> stable prog p
  | Unless (p, q) -> unless prog p q
  | Ensures (p, q) -> ensures prog p q
  | Leadsto (p, q) -> leads_to prog p q

let invariant_counterexample prog p =
  let space = Program.space prog in
  let m = Space.manager space in
  Space.first_state space (Bdd.diff m (Program.si prog) p)

let unless_counterexample prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let si = Program.si prog in
  let bad = Bdd.diff m (Bdd.and_ m si p) q in
  let rec scan = function
    | [] -> None
    | s :: rest -> (
        let violating = Bdd.diff m bad (Stmt.wp space s (Bdd.or_ m p q)) in
        match Space.first_state space violating with
        | Some st ->
            (* the image of a single state under a deterministic, total
               statement is a single state *)
            let succ = Stmt.sp space s (Space.pred_of_state space st) in
            Option.map (fun st' -> (st, Stmt.name s, st')) (Space.first_state space succ)
        | None -> scan rest)
  in
  scan (Program.statements prog)

let leads_to_counterexample prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let danger = fair_avoid prog q in
  Space.first_state space (Bdd.diff m (Bdd.conj m [ Program.si prog; p; danger ]) q)

let pp space fmt prop =
  let pr = Space.pp_pred space in
  match prop with
  | Invariant p -> Format.fprintf fmt "invariant %a" pr p
  | Stable p -> Format.fprintf fmt "stable %a" pr p
  | Unless (p, q) -> Format.fprintf fmt "%a unless %a" pr p pr q
  | Ensures (p, q) -> Format.fprintf fmt "%a ensures %a" pr p pr q
  | Leadsto (p, q) -> Format.fprintf fmt "%a ↦ %a" pr p pr q

open Kpt_predicate
open Kpt_unity

module S = Set.Make (String)

type judgment =
  | Invariant of Bdd.t
  | Unless of Bdd.t * Bdd.t
  | Ensures of Bdd.t * Bdd.t
  | Leadsto of Bdd.t * Bdd.t

type thm = {
  prog : Program.t;
  concl : judgment;
  assumps : S.t;
  rule : string;
  premises : thm list;
}

exception Rule_violation of string

let violation fmt = Format.kasprintf (fun s -> raise (Rule_violation s)) fmt

let program t = t.prog
let judgment t = t.concl
let assumptions t = S.elements t.assumps

let stable_judgment m p = Unless (p, Bdd.fls m)

let mk ?(rule = "?") ?(premises = []) prog concl assumps =
  { prog; concl; assumps; rule; premises }

let same_program a b =
  if not (a.prog == b.prog) then violation "premises refer to different programs"

let sp_of t = Program.space t.prog
let man_of t = Space.manager (sp_of t)

let pp fmt t =
  let space = sp_of t in
  let pr = Space.pp_pred space in
  (match t.concl with
  | Invariant p -> Format.fprintf fmt "invariant %a" pr p
  | Unless (p, q) when Bdd.is_false q -> Format.fprintf fmt "stable %a" pr p
  | Unless (p, q) -> Format.fprintf fmt "%a unless %a" pr p pr q
  | Ensures (p, q) -> Format.fprintf fmt "%a ensures %a" pr p pr q
  | Leadsto (p, q) -> Format.fprintf fmt "%a ↦ %a" pr p pr q);
  if not (S.is_empty t.assumps) then
    Format.fprintf fmt "  [assuming %s]" (String.concat ", " (S.elements t.assumps))

(* ---- hypotheses -------------------------------------------------------- *)

let assume prog ~name concl = mk ~rule:("assume " ^ name) prog concl (S.singleton name)

(* ---- basic rules ------------------------------------------------------- *)

let unless_text prog p q =
  if not (Props.unless prog p q) then
    violation "unless does not follow from the program text";
  mk ~rule:"unless (27), from text" prog (Unless (p, q)) S.empty

let ensures_text prog p q =
  if not (Props.ensures prog p q) then
    violation "ensures does not follow from the program text";
  mk ~rule:"ensures (28), from text" prog (Ensures (p, q)) S.empty

let ensures_intro t =
  match t.concl with
  | Unless (p, q) ->
      let prog = t.prog in
      let space = Program.space prog in
      let m = Space.manager space in
      let lhs = Bdd.conj m [ Program.si prog; p; Bdd.not_ m q ] in
      if
        not
          (List.exists
             (fun s -> Pred.holds_implies space lhs (Stmt.wp space s q))
             (Program.statements prog))
      then violation "ensures_intro: no statement establishes the consequent";
      mk ~rule:"ensures (28), existence from text" ~premises:[ t ] prog (Ensures (p, q))
        t.assumps
  | _ -> violation "ensures_intro expects an unless premise"

let stable_text prog p =
  let m = Space.manager (Program.space prog) in
  if not (Props.stable prog p) then violation "stable does not follow from the program text";
  mk ~rule:"stable (33), from text" prog (Unless (p, Bdd.fls m)) S.empty

let invariant_text ?using prog p =
  let space = Program.space prog in
  let m = Space.manager space in
  let i, assumps =
    match using with
    | None -> (Bdd.tru m, S.empty)
    | Some t ->
        if not (t.prog == prog) then violation "invariant_text: 'using' from another program";
        (match t.concl with
        | Invariant i -> (i, t.assumps)
        | _ -> violation "invariant_text: 'using' is not an invariant")
  in
  if not (Pred.holds_implies space (Program.init prog) p) then
    violation "invariant rule: init does not imply the predicate";
  List.iter
    (fun s ->
      if not (Pred.holds_implies space (Bdd.and_ m p i) (Stmt.wp space s p)) then
        violation "invariant rule: statement %s does not preserve the predicate" (Stmt.name s))
    (Program.statements prog);
  mk ~rule:"invariant (32)"
    ~premises:(match using with Some t -> [ t ] | None -> [])
    prog (Invariant p) assumps

let invariant_from_stable t =
  match t.concl with
  | Unless (p, q) when Bdd.is_false q ->
      let prog = t.prog in
      if not (Pred.holds_implies (Program.space prog) (Program.init prog) p) then
        violation "invariant_from_stable: init does not imply the predicate";
      mk ~rule:"invariant from stable + init" ~premises:[ t ] prog (Invariant p) t.assumps
  | _ -> violation "invariant_from_stable expects a stable premise"

(* ---- leads-to ---------------------------------------------------------- *)

let ensures_leadsto t =
  match t.concl with
  | Ensures (p, q) -> mk ~rule:"↦ intro (29)" ~premises:[ t ] t.prog (Leadsto (p, q)) t.assumps
  | _ -> violation "rule 29 expects an ensures premise"

let leadsto_trans a b =
  same_program a b;
  match (a.concl, b.concl) with
  | Leadsto (p, r), Leadsto (r', q) ->
      if not (Pred.equivalent (sp_of a) r r') then
        violation "transitivity: middle predicates differ";
      mk ~rule:"transitivity (30)" ~premises:[ a; b ] a.prog (Leadsto (p, q))
        (S.union a.assumps b.assumps)
  | _ -> violation "rule 30 expects two leads-to premises"

let leadsto_disj = function
  | [] -> violation "rule 31 needs at least one premise"
  | first :: rest as all ->
      List.iter (same_program first) rest;
      let space = sp_of first in
      let m = man_of first in
      let q0 =
        match first.concl with
        | Leadsto (_, q) -> q
        | _ -> violation "rule 31 expects leads-to premises"
      in
      let ps =
        List.map
          (fun t ->
            match t.concl with
            | Leadsto (p, q) ->
                if not (Pred.equivalent space q q0) then
                  violation "rule 31: premises have different consequents";
                p
            | _ -> violation "rule 31 expects leads-to premises")
          all
      in
      let assumps = List.fold_left (fun acc t -> S.union acc t.assumps) S.empty all in
      mk ~rule:"disjunction (31)" ~premises:all first.prog (Leadsto (Bdd.disj m ps, q0))
        assumps

let leadsto_implication ?using prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let i, assumps =
    match using with
    | None -> (Program.si prog, S.empty)
    | Some t ->
        if not (t.prog == prog) then violation "implication: 'using' from another program";
        (match t.concl with
        | Invariant i -> (i, t.assumps)
        | _ -> violation "implication: 'using' is not an invariant")
  in
  if not (Pred.holds_implies space (Bdd.and_ m i p) q) then
    violation "leads-to implication: the implication does not hold";
  mk ~rule:"↦ implication"
    ~premises:(match using with Some t -> [ t ] | None -> [])
    prog (Leadsto (p, q)) assumps

let leadsto_induction premise ~metric ~bound ~q =
  if bound < 0 then violation "induction: negative bound";
  let prems = List.init (bound + 1) premise in
  let t0 = List.hd prems in
  let prog = t0.prog in
  let space = sp_of t0 in
  let m = man_of t0 in
  let below k = Bdd.disj m (List.init k metric) in
  let assumps = ref S.empty in
  List.iteri
    (fun k t ->
      same_program t0 t;
      (match t.concl with
      | Leadsto (a, b) ->
          if not (Pred.equivalent space a (metric k)) then
            violation "induction: premise %d has the wrong antecedent" k;
          if not (Pred.holds_implies space b (Bdd.or_ m (below k) q)) then
            violation "induction: premise %d does not decrease the metric" k
      | _ -> violation "induction: premise %d is not a leads-to" k);
      assumps := S.union !assumps t.assumps)
    prems;
  mk ~rule:"induction" ~premises:prems prog (Leadsto (below (bound + 1), q)) !assumps

let conj_invariant = function
  | [] -> violation "conj_invariant needs at least one premise"
  | first :: rest as all ->
      List.iter (same_program first) rest;
      let m = man_of first in
      let preds =
        List.map
          (fun t ->
            match t.concl with
            | Invariant i -> i
            | _ -> violation "conj_invariant expects invariant premises")
          all
      in
      let assumps = List.fold_left (fun acc t -> S.union acc t.assumps) S.empty all in
      mk ~rule:"invariant conjunction" ~premises:all first.prog
        (Invariant (Bdd.conj m preds))
        assumps

let weaken_invariant t p =
  match t.concl with
  | Invariant i ->
      if not (Pred.holds_implies (sp_of t) i p) then
        violation "weaken_invariant: the invariant does not imply the predicate";
      mk ~rule:"invariant weakening" ~premises:[ t ] t.prog (Invariant p) t.assumps
  | _ -> violation "weaken_invariant expects an invariant premise"

let leadsto_model_checked prog p q =
  if not (Props.leads_to prog p q) then
    violation "leadsto_model_checked: the property fails on the model";
  mk ~rule:"model-checked (reflection)" prog (Leadsto (p, q)) S.empty

(* ---- metatheorems ------------------------------------------------------ *)

let substitution inv t target =
  same_program inv t;
  let space = sp_of t in
  let m = man_of t in
  let i =
    match inv.concl with
    | Invariant i -> i
    | _ -> violation "substitution: first premise must be an invariant"
  in
  let agree x x' =
    if not (Bdd.implies m (Bdd.and_ m (Space.domain space) i) (Bdd.iff m x x')) then
      violation "substitution: predicates differ where the invariant holds"
  in
  (match (t.concl, target) with
  | Invariant p, Invariant p' -> agree p p'
  | Unless (p, q), Unless (p', q') | Ensures (p, q), Ensures (p', q')
  | Leadsto (p, q), Leadsto (p', q') ->
      agree p p';
      agree q q'
  | _ -> violation "substitution: target judgment has a different shape");
  mk ~rule:"substitution (8.1)" ~premises:[ inv; t ] t.prog target
    (S.union inv.assumps t.assumps)

let weaken_unless t r =
  match t.concl with
  | Unless (p, q) ->
      if not (Pred.holds_implies (sp_of t) q r) then
        violation "consequence weakening: q does not imply r";
      mk ~rule:"consequence weakening (8.2)" ~premises:[ t ] t.prog (Unless (p, r)) t.assumps
  | _ -> violation "weaken_unless expects an unless premise"

let weaken_leadsto t r =
  match t.concl with
  | Leadsto (p, q) ->
      if not (Pred.holds_implies (sp_of t) q r) then
        violation "consequence weakening: q does not imply r";
      mk ~rule:"consequence weakening (8.2)" ~premises:[ t ] t.prog (Leadsto (p, r)) t.assumps
  | _ -> violation "weaken_leadsto expects a leads-to premise"

let strengthen_leadsto p' t =
  match t.concl with
  | Leadsto (p, q) ->
      if not (Pred.holds_implies (sp_of t) p' p) then
        violation "antecedent strengthening: p' does not imply p";
      mk ~rule:"antecedent strengthening" ~premises:[ t ] t.prog (Leadsto (p', q)) t.assumps
  | _ -> violation "strengthen_leadsto expects a leads-to premise"

let conj_unless_simple a b =
  same_program a b;
  let m = man_of a in
  match (a.concl, b.concl) with
  | Unless (p, q), Unless (p', q') ->
      mk ~rule:"simple conjunction (8.3)" ~premises:[ a; b ] a.prog
        (Unless (Bdd.and_ m p p', Bdd.or_ m q q'))
        (S.union a.assumps b.assumps)
  | _ -> violation "conjunction expects two unless premises"

let conj_unless a b =
  same_program a b;
  let m = man_of a in
  match (a.concl, b.concl) with
  | Unless (p, q), Unless (p', q') ->
      let rhs =
        Bdd.disj m [ Bdd.and_ m p q'; Bdd.and_ m p' q; Bdd.and_ m q q' ]
      in
      mk ~rule:"conjunction (8.3)" ~premises:[ a; b ] a.prog
        (Unless (Bdd.and_ m p p', rhs))
        (S.union a.assumps b.assumps)
  | _ -> violation "conjunction expects two unless premises"

let cancellation a b =
  same_program a b;
  let space = sp_of a in
  let m = man_of a in
  match (a.concl, b.concl) with
  | Unless (p, q), Unless (q', r) ->
      if not (Pred.equivalent space q q') then
        violation "cancellation: middle predicates differ";
      mk ~rule:"cancellation (8.4)" ~premises:[ a; b ] a.prog
        (Unless (Bdd.or_ m p q, r))
        (S.union a.assumps b.assumps)
  | _ -> violation "cancellation expects two unless premises"

let general_disjunction = function
  | [] -> violation "generalized disjunction needs at least one premise"
  | first :: rest as all ->
      List.iter (same_program first) rest;
      let m = man_of first in
      let pairs =
        List.map
          (fun t ->
            match t.concl with
            | Unless (p, q) -> (p, q)
            | _ -> violation "generalized disjunction expects unless premises")
          all
      in
      let lhs = Bdd.disj m (List.map fst pairs) in
      let side =
        Bdd.conj m (List.map (fun (p, q) -> Bdd.or_ m (Bdd.not_ m p) q) pairs)
      in
      let some_q = Bdd.disj m (List.map snd pairs) in
      let assumps = List.fold_left (fun acc t -> S.union acc t.assumps) S.empty all in
      mk ~rule:"generalized disjunction (8.5)" ~premises:all first.prog
        (Unless (lhs, Bdd.and_ m side some_q))
        assumps

let psp a b =
  same_program a b;
  let m = man_of a in
  match (a.concl, b.concl) with
  | Leadsto (p, q), Unless (r, bb) ->
      mk ~rule:"PSP (8.6)" ~premises:[ a; b ] a.prog
        (Leadsto (Bdd.and_ m p r, Bdd.or_ m (Bdd.and_ m q r) bb))
        (S.union a.assumps b.assumps)
  | _ -> violation "PSP expects a leads-to and an unless premise"

let rule t = t.rule
let premises t = t.premises

let rec pp_judgment_short space fmt =
  let count p = Bigcount.to_string (Space.count_states_exact space p) in
  function
  | Invariant p ->
      Format.fprintf fmt "invariant ⟨%s states⟩" (count p)
  | Unless (p, q) when Bdd.is_false q -> Format.fprintf fmt "stable ⟨%s⟩" (count p)
  | Unless (p, q) -> Format.fprintf fmt "⟨%s⟩ unless ⟨%s⟩" (count p) (count q)
  | Ensures (p, q) -> Format.fprintf fmt "⟨%s⟩ ensures ⟨%s⟩" (count p) (count q)
  | Leadsto (p, q) -> Format.fprintf fmt "⟨%s⟩ ↦ ⟨%s⟩" (count p) (count q)

and pp_derivation fmt t =
  let space = sp_of t in
  let rec go indent t =
    Format.fprintf fmt "%s%a   {%s}@." indent (pp_judgment_short space) t.concl t.rule;
    List.iter (go (indent ^ "  ")) t.premises
  in
  go "" t

let derivation_size t =
  let rec go t = 1 + List.fold_left (fun acc p -> acc + go p) 0 t.premises in
  go t

let rules_used t =
  let acc = ref S.empty in
  let rec go t =
    acc := S.add t.rule !acc;
    List.iter go t.premises
  in
  go t;
  S.elements !acc

let psp_stable l u =
  match (u.concl, l.concl) with
  | Unless (r, bb), Leadsto (_, q) when Bdd.is_false bb ->
      (* psp already yields (q ∧ r) ∨ false = q ∧ r; the weaken validates
         and renames the step *)
      let m = man_of l in
      weaken_leadsto (psp l u) (Bdd.and_ m q r)
  | Unless (_, _), Leadsto (_, _) -> violation "psp_stable expects a stable second premise"
  | _ -> violation "psp_stable expects a leads-to and a stable premise"

let completion = function
  | [] -> violation "completion needs at least one premise pair"
  | ((l0, _) :: _ as pairs) ->
      let space = sp_of l0 in
      let m = man_of l0 in
      (* extract the shared b from the first unless premise *)
      let b =
        match (snd (List.hd pairs)).concl with
        | Unless (_, b) -> b
        | _ -> violation "completion: second components must be unless"
      in
      let ps, qs =
        List.split
          (List.map
             (fun (l, u) ->
               same_program l0 l;
               same_program l0 u;
               match (l.concl, u.concl) with
               | Leadsto (p, qb), Unless (q, b') ->
                   if not (Pred.equivalent space b b') then
                     violation "completion: premises disagree on b";
                   if not (Pred.equivalent space qb (Bdd.or_ m q b)) then
                     violation "completion: leads-to consequent is not q ∨ b";
                   (p, q)
               | _ -> violation "completion expects (leads-to, unless) pairs")
             pairs)
      in
      let assumps =
        List.fold_left
          (fun acc (l, u) -> S.union acc (S.union l.assumps u.assumps))
          S.empty pairs
      in
      mk ~rule:"completion" ~premises:(List.concat_map (fun (l, u) -> [ l; u ]) pairs)
        l0.prog
        (Leadsto (Bdd.conj m ps, Bdd.or_ m (Bdd.conj m qs) b))
        assumps

(* ---- semantic re-check ------------------------------------------------- *)

let check t =
  match t.concl with
  | Invariant p -> Props.invariant t.prog p
  | Unless (p, q) -> Props.unless t.prog p q
  | Ensures (p, q) -> Props.ensures t.prog p q
  | Leadsto (p, q) -> Props.leads_to t.prog p q

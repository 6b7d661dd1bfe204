open Kpt_predicate
open Kpt_unity
open Kpt_logic

(* ======================================================================== *)
(* The parametric liveness chain: eqs. (39)-(49) of §6.2, instantiable on
   the knowledge-based protocol (knowledge variables) and on the standard
   protocol (candidate predicates 50-52).                                   *)
(* ======================================================================== *)

type chain_ctx = {
  cprog : Program.t;
  cspace : Space.t;
  cn : int;
  ca : int;
  cjeq : int -> Bdd.t;
  cjgt : int -> Bdd.t;
  cieq : int -> Bdd.t;
  cigt : int -> Bdd.t;
  cyeq : int -> Bdd.t;
  ckr : int -> int -> Bdd.t;   (* K_R(x_k = α) *)
  ckrx : int -> Bdd.t;         (* K_R x_k *)
  ckskr : int -> Bdd.t;        (* K_S K_R x_k *)
  cksj : int -> Bdd.t;         (* K_S (j ≥ k) *)
  ckbp1 : int -> int -> Proof.thm;  (* Kbp-1 / St-3 as ↦ *)
  ckbp2 : int -> Proof.thm;         (* Kbp-2 / (53) as ↦ *)
  ckbp3 : int -> int -> Proof.thm;  (* Kbp-3 / (56): stable K_R(x_k=α) *)
  cinv46 : int -> Proof.thm;        (* invariant K_S(j≥k) ⇒ ⋀l<k K_SK_Rx_l *)
  cinv48 : int -> Proof.thm;        (* invariant (i>k ∨ (i=k ∧ K_SK_Rx_k)) ⇒ K_Rx_k *)
  ckskr_sound : Proof.thm;          (* invariant ⋀k (K_SK_Rx_k ⇒ K_Rx_k) *)
}

let man ctx = Space.manager ctx.cspace
let ige ctx k = Bdd.or_ (man ctx) (ctx.cigt k) (ctx.cieq k)

(* Kbp-1's antecedent: i = k ∧ y = α ∧ ¬K_S K_R x_k. *)
let ante1 ctx k alpha =
  let m = man ctx in
  Bdd.conj m [ ctx.cieq k; ctx.cyeq alpha; Bdd.not_ m (ctx.ckskr k) ]

(* Kbp-2's antecedent: j = k ∧ ¬K_R x_k. *)
let ante2 ctx k =
  let m = man ctx in
  Bdd.and_ m (ctx.cjeq k) (Bdd.not_ m (ctx.ckrx k))

(* (40): j = k ∧ K_R x_k ↦ j > k.  Per α: conjoin "j = k unless j > k"
   (text) with the stability of K_R(x_k = α) — the paper's remark under
   (40): the metatheorem route, because at the KBP level wp of the
   knowledge guard is not computable — then introduce the ensures via the
   receiver's write statement, rule 29, and disjunction over α. *)
let theorem40 ctx k =
  let per_alpha alpha =
    let u1 = Proof.unless_text ctx.cprog (ctx.cjeq k) (ctx.cjgt k) in
    let conj = Proof.conj_unless_simple u1 (ctx.ckbp3 k alpha) in
    Proof.ensures_leadsto (Proof.ensures_intro conj)
  in
  Proof.leadsto_disj (List.init ctx.ca per_alpha)

(* (42): j = k ∧ ¬K_R x_k unless j = k ∧ K_R x_k — from text. *)
let theorem42 ctx k =
  let m = man ctx in
  Proof.unless_text ctx.cprog (ante2 ctx k) (Bdd.and_ m (ctx.cjeq k) (ctx.ckrx k))

(* (43): j = k ∧ ¬K_R x_k ↦ K_S(j ≥ k) ∨ K_R x_k — PSP on Kbp-2 and (42),
   simplify and weaken the right-hand side. *)
let theorem43 ctx k =
  let m = man ctx in
  let p = Proof.psp (ctx.ckbp2 k) (theorem42 ctx k) in
  Proof.weaken_leadsto p (Bdd.or_ m (ctx.cksj k) (ctx.ckrx k))

(* (47): (∀l < k : K_S K_R x_l) ↦ i ≥ k — induction on the sender index
   (the paper's {induction} step), each premise an ensures from the text
   via snd_adv. *)
let theorem47 ctx k =
  let m = man ctx in
  let bigb = Bdd.conj m (List.init k ctx.ckskr) in
  if k = 0 then Proof.leadsto_implication ctx.cprog bigb (ige ctx 0)
  else begin
    let metric t = Bdd.and_ m (ctx.cieq (k - 1 - t)) bigb in
    let q = ige ctx k in
    let below t = Bdd.disj m (List.init t metric) in
    let premise t =
      let mt = k - 1 - t in
      let e =
        Proof.ensures_text ctx.cprog (metric t) (Bdd.and_ m (ctx.cieq (mt + 1)) bigb)
      in
      Proof.weaken_leadsto (Proof.ensures_leadsto e) (Bdd.or_ m (below t) q)
    in
    let low = Proof.leadsto_induction premise ~metric ~bound:(k - 1) ~q in
    let high = Proof.leadsto_implication ctx.cprog (Bdd.and_ m q bigb) q in
    Proof.leadsto_disj [ low; high ]
  end

(* (44): K_S(j ≥ k) ↦ i ≥ k — leads-to implication on (46), transitivity
   with (47). *)
let theorem44 ctx k =
  let m = man ctx in
  let bigb = Bdd.conj m (List.init k ctx.ckskr) in
  let l46 = Proof.leadsto_implication ~using:(ctx.cinv46 k) ctx.cprog (ctx.cksj k) bigb in
  Proof.leadsto_trans l46 (theorem47 ctx k)

(* (49): i = k ∧ ¬K_S K_R x_k ↦ K_R x_k — unless from text, PSP with
   Kbp-1, rewrite under "K_S K_R x_k ⇒ K_R x_k" (the (14)-instance the
   paper invokes), weaken, and disjunction over α (rule 31). *)
let theorem49 ctx k =
  let m = man ctx in
  let per_alpha alpha =
    let a1 = ante1 ctx k alpha in
    let u = Proof.unless_text ctx.cprog a1 (ctx.ckskr k) in
    let p1 = Proof.psp (ctx.ckbp1 k alpha) u in
    (* p1's consequent is (K_R(x_k=α) ∨ ¬a1) ∧ a1 ∨ K_SK_Rx_k; rewrite the
       bare K_SK_Rx_k disjunct under the soundness invariant, then weaken
       to K_R x_k. *)
    let q' =
      Bdd.or_ m
        (Bdd.and_ m (ctx.ckr k alpha) a1)
        (Bdd.and_ m (ctx.ckskr k) (ctx.ckrx k))
    in
    let p2 = Proof.substitution ctx.ckskr_sound p1 (Proof.Leadsto (Bdd.and_ m a1 a1, q')) in
    Proof.weaken_leadsto p2 (ctx.ckrx k)
  in
  Proof.leadsto_disj (List.init ctx.ca per_alpha)

(* (45): i ≥ k ↦ K_R x_k — leads-to implication on (48), disjunction with
   (49). *)
let theorem45 ctx k =
  let m = man ctx in
  let lhs48 = Bdd.or_ m (ctx.cigt k) (Bdd.and_ m (ctx.cieq k) (ctx.ckskr k)) in
  let l1 = Proof.leadsto_implication ~using:(ctx.cinv48 k) ctx.cprog lhs48 (ctx.ckrx k) in
  Proof.leadsto_disj [ l1; theorem49 ctx k ]

(* (41): j = k ∧ ¬K_R x_k ↦ j = k ∧ K_R x_k — transitivity on (44),(45),
   disjunction with K_R x_k ↦ K_R x_k, transitivity with (43), PSP with
   (42). *)
let theorem41 ctx k =
  let t4445 = Proof.leadsto_trans (theorem44 ctx k) (theorem45 ctx k) in
  let refl = Proof.leadsto_implication ctx.cprog (ctx.ckrx k) (ctx.ckrx k) in
  let c = Proof.leadsto_disj [ t4445; refl ] in
  let d = Proof.leadsto_trans (theorem43 ctx k) c in
  Proof.psp d (theorem42 ctx k)

(* (39) = (35) instance: j = k ↦ j > k — (40), (41), transitivity and
   disjunction. *)
let theorem39 ctx k =
  let via_learning = Proof.leadsto_trans (theorem41 ctx k) (theorem40 ctx k) in
  Proof.leadsto_disj [ theorem40 ctx k; via_learning ]

(* ======================================================================== *)
(* Instantiation on the knowledge-based protocol (Figure 3).                *)
(* ======================================================================== *)

let replay_abstract (st : Seqtrans.abstract) =
  let open Seqtrans in
  let { n; a } = st.aparams in
  let prog = st.aprog in
  let sp = st.aspace in
  let m = Space.manager sp in
  let e ex = Expr.compile_bool sp ex in
  let kr k alpha = a_kr st ~k ~alpha in
  let krx k = a_krx st ~k in
  let kskr k = a_kskr st ~k in
  let ksj k = a_ksj st ~k in
  (* --- invariants, rule 32 --------------------------------------------- *)
  let inv_y =
    Proof.invariant_text prog
      (e (Expr.disj
            (List.init n (fun k ->
                 Expr.((var st.ai === nat k) &&& (var st.ay === var st.axs.(k)))))))
  in
  let inv37 =
    Proof.invariant_text prog
      (Bdd.conj m (List.init n (fun l -> Bdd.imp m (a_j_gt st l) (krx l))))
  in
  let inv38 =
    Proof.invariant_text prog
      (Bdd.conj m (List.init (n - 1) (fun l -> Bdd.imp m (a_i_gt st l) (kskr l))))
  in
  let kr_sound =
    Proof.invariant_text ~using:inv_y prog
      (Bdd.conj m
         (List.concat
            (List.init n (fun k ->
                 List.init a (fun alpha ->
                     Bdd.imp m (kr k alpha)
                       (e Expr.(var st.axs.(k) === nat alpha)))))))
  in
  let kskr_sound =
    Proof.invariant_text ~using:inv37 prog
      (Bdd.conj m (List.init n (fun k -> Bdd.imp m (kskr k) (krx k))))
  in
  let ksj_sound =
    Proof.invariant_text prog
      (Bdd.conj m
         (List.init (n + 1) (fun k ->
              Bdd.imp m (ksj k) (e Expr.(var st.aj >== nat k)))))
  in
  let safety =
    Proof.invariant_text ~using:kr_sound prog (a_spec_safety st)
  in
  let inv46 k =
    Proof.invariant_text prog
      (Bdd.imp m (ksj k) (Bdd.conj m (List.init k kskr)))
  in
  let inv48 k =
    let lhs = Bdd.or_ m (a_i_gt st k) (Bdd.and_ m (a_i_eq st k) (kskr k)) in
    Proof.invariant_text
      ~using:(Proof.conj_invariant [ inv37; inv38; kskr_sound ])
      prog
      (Bdd.imp m lhs (krx k))
  in
  (* --- channel / stability premises, from the text ---------------------- *)
  let kbp1 k alpha =
    let a1 =
      Bdd.conj m [ a_i_eq st k; a_y_eq st alpha; Bdd.not_ m (kskr k) ]
    in
    Proof.ensures_leadsto
      (Proof.ensures_text prog a1 (Bdd.or_ m (kr k alpha) (Bdd.not_ m a1)))
  in
  let kbp2 k =
    let a2 = Bdd.and_ m (a_j_eq st k) (Bdd.not_ m (krx k)) in
    Proof.ensures_leadsto
      (Proof.ensures_text prog a2 (Bdd.or_ m (ksj k) (Bdd.not_ m a2)))
  in
  let kbp3 k alpha = Proof.stable_text prog (kr k alpha) in
  let kbp4 k = Proof.stable_text prog (kskr k) in
  let ctx =
    {
      cprog = prog;
      cspace = sp;
      cn = n;
      ca = a;
      cjeq = a_j_eq st;
      cjgt = a_j_gt st;
      cieq = a_i_eq st;
      cigt = a_i_gt st;
      cyeq = (fun alpha -> a_y_eq st alpha);
      ckr = kr;
      ckrx = krx;
      ckskr = kskr;
      cksj = ksj;
      ckbp1 = kbp1;
      ckbp2 = kbp2;
      ckbp3 = kbp3;
      cinv46 = inv46;
      cinv48 = inv48;
      ckskr_sound = kskr_sound;
    }
  in
  [
    ("inv-y", inv_y);
    ("inv-37", inv37);
    ("inv-38", inv38);
    ("kr-sound(14)", kr_sound);
    ("kskr-sound", kskr_sound);
    ("ksj-sound", ksj_sound);
    ("safety(34)", safety);
    ("Kbp-1@0,0", kbp1 0 0);
    ("Kbp-2@0", kbp2 0);
    ("Kbp-3@0,0", kbp3 0 0);
    ("Kbp-4@0", kbp4 0);
  ]
  @ List.init n (fun k -> (Printf.sprintf "(40)@%d" k, theorem40 ctx k))
  @ List.init n (fun k -> (Printf.sprintf "(41)@%d" k, theorem41 ctx k))
  @ List.init n (fun k -> (Printf.sprintf "liveness(35)@%d" k, theorem39 ctx k))

(* ======================================================================== *)
(* Instantiation on the standard protocol (Figure 4).                       *)
(* ======================================================================== *)

let replay_standard ~assume_channel (st : Seqtrans.standard) =
  let open Seqtrans in
  let { n; a } = st.sparams in
  let prog = st.sprog in
  let sp = st.sspace in
  let m = Space.manager sp in
  let e ex = Expr.compile_bool sp ex in
  let jeq k = e Expr.(var st.j === nat k) in
  let jgt k = e Expr.(var st.j >>> nat k) in
  let ieq k = e Expr.(var st.i === nat k) in
  let igt k = e Expr.(var st.i >>> nat k) in
  let yeq alpha = e Expr.(var st.y === nat alpha) in
  let kr k alpha = cand_kr st ~k ~alpha in
  let krx k = Bdd.disj m (List.init a (fun alpha -> kr k alpha)) in
  let kskr k = cand_kskr st ~k in
  let ksj k = cand_ksj st ~k in
  (* --- the grand inductive invariant (the paper's history-variable
         arguments (54),(61),(62) re-expressed over the channel state) --- *)
  let dmsg_sound v =
    Expr.conj
      (List.concat
         (List.init n (fun k ->
              List.init a (fun alpha ->
                  Expr.(
                    (var v === nat ((k * a) + alpha))
                    ==> ((var st.xs.(k) === nat alpha) &&& (var st.i >== nat k)))))))
  in
  let ack_bound v = Expr.((var v <== nat n) ==> (var v <== var st.j)) in
  let big =
    e
      (Expr.conj
         [
           Expr.disj
             (List.init n (fun k ->
                  Expr.((var st.i === nat k) &&& (var st.y === var st.xs.(k)))));
           dmsg_sound st.data.Channel.slot;
           dmsg_sound st.data.Channel.avail;
           dmsg_sound st.zp;
           Expr.conj
             (List.init n (fun k ->
                  Expr.((var st.j >>> nat k) ==> (var st.ws.(k) === var st.xs.(k)))));
           ack_bound st.ack.Channel.slot;
           ack_bound st.ack.Channel.avail;
           ack_bound st.z;
           Expr.(var st.j <== var st.i +! nat 1);
           Expr.(var st.i <== var st.j);
         ])
  in
  let big_inv = Proof.invariant_text prog big in
  let inv54 k = Proof.weaken_invariant big_inv (inv54 st ~k) in
  let inv61 k alpha = Proof.weaken_invariant big_inv (inv61 st ~k ~alpha) in
  let inv62 k = Proof.weaken_invariant big_inv (inv62 st ~k) in
  let safety = Proof.weaken_invariant big_inv (spec_safety st) in
  let window =
    (* the §6.4 remark: invariant i ≤ j ≤ i+1 *)
    Proof.weaken_invariant big_inv
      (e Expr.((var st.i <== var st.j) &&& (var st.j <== var st.i +! nat 1)))
  in
  let kskr_sound =
    Proof.weaken_invariant big_inv
      (Bdd.conj m (List.init n (fun k -> Bdd.imp m (kskr k) (krx k))))
  in
  let inv46 k =
    Proof.weaken_invariant big_inv
      (Bdd.imp m (ksj k) (Bdd.conj m (List.init k kskr)))
  in
  let inv48 k =
    let lhs = Bdd.or_ m (igt k) (Bdd.and_ m (ieq k) (kskr k)) in
    Proof.weaken_invariant big_inv (Bdd.imp m lhs (krx k))
  in
  (* --- stability (55)-(56), from the text ------------------------------- *)
  let st55 k = Proof.stable_text prog (kskr k) in
  let st56 k alpha = Proof.stable_text prog (kr k alpha) in
  (* --- channel obligations St-3 / St-4 ----------------------------------- *)
  let kbp1 k alpha =
    let a1 = Bdd.conj m [ ieq k; yeq alpha; Bdd.not_ m (kskr k) ] in
    let q = Bdd.or_ m (kr k alpha) (Bdd.not_ m a1) in
    if assume_channel then Proof.assume prog ~name:"St-3" (Proof.Leadsto (a1, q))
    else Proof.leadsto_model_checked prog a1 q
  in
  let kbp2 k =
    let a2 = Bdd.and_ m (jeq k) (Bdd.not_ m (krx k)) in
    let q = Bdd.or_ m (ksj k) (Bdd.not_ m a2) in
    if assume_channel then Proof.assume prog ~name:"St-4" (Proof.Leadsto (a2, q))
    else Proof.leadsto_model_checked prog a2 q
  in
  let ctx =
    {
      cprog = prog;
      cspace = sp;
      cn = n;
      ca = a;
      cjeq = jeq;
      cjgt = jgt;
      cieq = ieq;
      cigt = igt;
      cyeq = yeq;
      ckr = kr;
      ckrx = krx;
      ckskr = kskr;
      cksj = ksj;
      ckbp1 = kbp1;
      ckbp2 = kbp2;
      ckbp3 = st56;
      cinv46 = inv46;
      cinv48 = inv48;
      ckskr_sound = kskr_sound;
    }
  in
  [
    ("big-invariant", big_inv);
    ("inv-54@1", inv54 1);
    ("inv-61@0,0", inv61 0 0);
    ("inv-62@0", inv62 0);
    ("safety(34)", safety);
    ("window(i≤j≤i+1)", window);
    ("kskr-sound", kskr_sound);
    ("stable(55)@0", st55 0);
    ("stable(56)@0,0", st56 0 0);
  ]
  @ List.init n (fun k -> (Printf.sprintf "liveness(35)@%d" k, theorem39 ctx k))

(* ======================================================================== *)
(* The paper's proof of (37), replayed with its own margin notes.           *)
(* ======================================================================== *)

let inv37_paper_style (st : Seqtrans.abstract) =
  let open Seqtrans in
  let { n; a } = st.aparams in
  let prog = st.aprog in
  let m = Space.manager st.aspace in
  (* stable K_R x_k: Kbp-3 gives stability per value; the disjunction over
     the alphabet is stable by generalized disjunction (q.i = false). *)
  let stable_krx k =
    Proof.general_disjunction
      (List.init a (fun alpha -> Proof.stable_text prog (a_kr st ~k ~alpha)))
  in
  (* stable P.k = ⋀_{l<k} K_R x_l, by simple conjunction of stables *)
  let stable_p k =
    let tru_stable = Proof.stable_text prog (Bdd.tru m) in
    List.fold_left
      (fun acc l -> Proof.conj_unless_simple acc (stable_krx l))
      tru_stable
      (List.init k (fun l -> l))
  in
  let family =
    List.init (n + 1) (fun k ->
        let jeq = a_j_eq st k and jnext = a_j_eq st (k + 1) in
        (* j = k unless j = k+1                               {from text} *)
        let u1 = Proof.unless_text prog jeq jnext in
        (* conjunction with (Kbp-3):
           j = k ∧ K_Rx_k unless j = k+1 ∧ K_Rx_k *)
        let c1 =
          if k < n then Proof.conj_unless u1 (stable_krx k)
          else
            (* at the horizon there is no element k to know *)
            Proof.conj_unless u1 (Proof.stable_text prog (Bdd.tru m))
        in
        (* j = k unless j = k ∧ K_Rx_k                        {from text} *)
        let u2 =
          let q = Bdd.and_ m jeq (if k < n then a_krx st ~k else Bdd.tru m) in
          Proof.unless_text prog jeq q
        in
        (* cancellation: j = k unless j = k+1 ∧ K_Rx_k *)
        let c2 = Proof.cancellation u2 c1 in
        (* conjunction with stable P.k:
           j = k ∧ P.k unless j = k+1 ∧ P.(k+1) *)
        Proof.conj_unless c2 (stable_p k))
  in
  (* generalized disjunction: (∃k :: j = k ∧ P.k) unless … — and the
     right-hand side collapses to false, because the disjunct q.k that
     holds contradicts the conjunct for the new value of j. *)
  let gd = Proof.general_disjunction family in
  let stable37 =
    match Proof.judgment gd with
    | Proof.Unless (_, q) when Bdd.is_false q -> gd
    | Proof.Unless (_, q) ->
        (* make falsity explicit through consequence weakening if the BDD
           did not already normalise it away *)
        if Bdd.is_false (Pred.normalize st.aspace q) then
          Proof.weaken_unless gd (Bdd.fls m)
        else Proof.weaken_unless gd q
    | _ -> assert false
  in
  Proof.invariant_from_stable stable37

(** The sequence transmission problem (§6, after [HZ87]):

    transmit the sequence [x] over a faulty channel so that the delivered
    sequence [w] is always a prefix of [x] (safety, eq. 34) and keeps
    growing (liveness, eq. 35).

    Two protocols are built here, both bounded by a horizon [n] and an
    alphabet size [a] (the paper's protocols are infinite-state; the
    bounded instances exercise every transition of the first [n]
    elements, and all checked properties are parametric in [k < n]):

    - {!standard}: Figure 4 — explicit sequence numbers, an ack channel
      conveying the receiver's index [j], and a data channel carrying
      pairs [(i, y)], over capacity-1 channels with optional loss /
      detectable corruption (duplication is always possible because a
      delivered message stays available).  [zp] is the paper's [z'],
      [z] its [z]; both are written only by their owner's statements
      via embedded [receive], which is what makes eqs. 55–56 stable.

    - {!abstract_kbp}: Figure 3 under the paper's own §6.4 "weaker
      interpretation": the knowledge predicates [K_R(x_k = α)],
      [K_S K_R x_k] and [K_S(j ≥ k)] are {e explicit Boolean variables},
      set (never reset) by two environment "oracle" statements that model
      a data- and an ack-message getting through; all properties the
      paper lists (Kbp-1..4 and the S5 soundness facts) are then provable
      from the program text, which is what makes the mechanised replay of
      the §6.2 correctness proof possible (see {!Seqtrans_proofs}). *)

open Kpt_predicate
open Kpt_unity

type params = { n : int; a : int }
(** Horizon (elements transmitted) and alphabet size.  [n ≥ 2], [a ≥ 2]
    required ([a ≥ 2] is the paper's "no a priori information" proviso). *)

val params_error : params -> string option
(** The constraint above that the parameters break, if any.  The
    builders below raise [Invalid_argument] on it. *)

(** {1 The specification (§6)}

    The one definition of the spec every §6 protocol implements, over
    its receiver index [j = |w|], delivered sequence [ws] and input
    [xs]; the per-protocol names are aliases. *)

val safety : Space.t -> j:Space.var -> ws:Space.var array -> xs:Space.var array -> Bdd.t
(** Eq. 34, [invariant w ⊑ x], at the bounded horizon [n = |ws|]:
    [⋀ k < n : j > k ⇒ w_k = x_k]. *)

val liveness_holds : Program.t -> j:Space.var -> k:int -> bool
(** Eq. 35 instance [|w| = k ↦ |w| > k]: does [j = k ↦ j > k] hold
    under fair leads-to? *)

(** {1 The standard protocol (Figure 4)} *)

type standard = {
  sprog : Program.t;
  sspace : Space.t;
  sparams : params;
  xs : Space.var array;  (** the sequence to send (never assigned) *)
  ws : Space.var array;  (** the delivered sequence; [ws.(k)] valid for [k < j] *)
  y : Space.var;  (** sender's cache of [x_i] *)
  i : Space.var;  (** sender's index, [0..n-1] *)
  j : Space.var;  (** receiver's index = |w|, [0..n] *)
  z : Space.var;  (** sender's receive register (acks), [0..n] ∪ ⊥ *)
  zp : Space.var;  (** receiver's receive register (data), [(k,α)] ∪ ⊥ *)
  data : Channel.t;  (** sender → receiver *)
  ack : Channel.t;  (** receiver → sender *)
}

val standard : ?lossy:bool -> ?fault:Kpt_fault.Model.t -> params -> standard
(** Build the bounded Figure-4 program.  [lossy] (default [true])
    includes the drop statements; without them the channel still
    duplicates but St-3/St-4 hold outright and liveness is unconditional.
    [?fault] overrides [?lossy] with an explicit {!Kpt_fault.Model.t}
    (a single shared crash flag when the model crashes). *)

val spec_safety : standard -> Bdd.t
(** {!safety} (eq. 34) of the standard protocol. *)

val spec_liveness_holds : standard -> k:int -> bool
(** {!liveness_holds} (eq. 35) of the standard protocol.  True for
    every [k < n] on the duplicating-only channel; {e false} on the
    lossy channel — which is exactly why the paper must assume
    St-3/St-4. *)

val inv54 : standard -> k:int -> Bdd.t
(** Eq. 54: [z ≥ k ⇒ j ≥ k] (with [z ≠ ⊥] implicit in [z ≥ k]). *)

val inv61 : standard -> k:int -> alpha:int -> Bdd.t
(** Eq. 61: the proposed [K_R(x_k = α)] value implies [x_k = α]. *)

val inv62 : standard -> k:int -> Bdd.t
(** Eq. 62 (content): the proposed [K_S K_R x_k] value implies [j > k]
    (hence the receiver has delivered, and knows, [x_k]). *)

val cand_kr : standard -> k:int -> alpha:int -> Bdd.t
(** Eq. 50: [(j = k ∧ z' = (k,α)) ∨ (j > k ∧ w_k = α)]. *)

val cand_kskr : standard -> k:int -> Bdd.t
(** Eq. 51: [(i = k ∧ z = k+1) ∨ i > k]. *)

val cand_ksj : standard -> k:int -> Bdd.t
(** Eq. 52's witness for [K_S (j ≥ k)]: [z ≥ k] (with [z ≠ ⊥]). *)

val real_kr : standard -> k:int -> alpha:int -> Bdd.t
(** The genuine [K_R(x_k = α)] by the knowledge transformer (eq. 13). *)

val real_kskr : standard -> k:int -> Bdd.t
(** The genuine [K_S K_R x_k ≝ K_S (∃α :: K_R(x_k = α))]. *)

val stable55_holds : standard -> k:int -> bool
(** Eq. 55: stability of the proposed [K_S K_R x_k] value. *)

val stable56_holds : standard -> k:int -> alpha:int -> bool
(** Eq. 56: stability of the proposed [K_R(x_k = α)] value. *)

(** {1 The knowledge-based protocol (Figure 3), weaker interpretation} *)

type abstract = {
  aprog : Program.t;
  aspace : Space.t;
  aparams : params;
  axs : Space.var array;
  aws : Space.var array;
  ay : Space.var;
  ai : Space.var;
  aj : Space.var;
  kr : Space.var array array;  (** [kr.(k).(α)] ⇔ "K_R(x_k = α)" *)
  kskr : Space.var array;  (** [kskr.(k)] ⇔ "K_S K_R x_k" *)
  ksj : Space.var array;  (** [ksj.(k)] ⇔ "K_S (j ≥ k)", [k ≤ n] *)
}

val abstract_kbp : params -> abstract
(** Build the Figure-3 program in the weaker interpretation. *)

val a_spec_safety : abstract -> Bdd.t
(** {!safety} (eq. 34) of the abstract protocol. *)

val a_spec_liveness_holds : abstract -> k:int -> bool
(** {!liveness_holds} (eq. 35) of the abstract protocol (holds: the
    oracles fire under UNITY fairness, which is the canonical channel
    satisfying Kbp-1/Kbp-2). *)

(** {2 Predicate shorthands used by the proof replay} *)

val a_kr : abstract -> k:int -> alpha:int -> Bdd.t

val a_krx : abstract -> k:int -> Bdd.t
(** [K_R x_k ≝ (∃α :: K_R(x_k = α))]. *)

val a_kskr : abstract -> k:int -> Bdd.t
val a_ksj : abstract -> k:int -> Bdd.t
val a_j_eq : abstract -> int -> Bdd.t
val a_j_gt : abstract -> int -> Bdd.t
val a_i_eq : abstract -> int -> Bdd.t
val a_i_gt : abstract -> int -> Bdd.t
val a_i_ge : abstract -> int -> Bdd.t
val a_y_eq : abstract -> int -> Bdd.t

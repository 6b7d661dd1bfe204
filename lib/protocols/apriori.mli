(** The a-priori-knowledge experiment (§6.4).

    "Suppose the value of the first element of x is known a priori.  The
    standard protocol above would still result in the value being sent
    and acknowledged, while a standard protocol consistent with the
    knowledge-based protocol would have the receiver deliver the value
    immediately, and the sender would begin with the second element,
    thus saving one message."

    We reproduce both halves:

    - {!instantiation_breaks}: with [x₀] pinned to a constant in the
      initial condition, the proposed predicate (50) is {e no longer the
      weakest} — the genuine [K_R(x₀ = c)] is true everywhere while (50)
      is not — so the standard protocol stops being an instantiation of
      the KBP even though it still satisfies the specification (the
      paper's footnote 3 on [HZar]'s Proposition 4.5).

    - {!message_counts}: simulation of the standard protocol vs. the
      knowledge-optimal protocol (receiver starts at [j = 1] with [w₀]
      delivered; sender starts at [i = 1]): the optimal variant
      transmits strictly fewer data messages — "saving one message"
      (one per retransmission of element 0 under duplication/loss). *)

open Kpt_predicate

type verdict = {
  cand_implies_k : bool;  (** (50) ⇒ K_R(x₀ = c): still sound *)
  k_implies_cand : bool;  (** K_R(x₀ = c) ⇒ (50): weakest-ness — breaks *)
  still_safe : bool;      (** the standard protocol still meets eq. 34 *)
  still_live : bool;      (** and eq. 35 (duplicating-only channel) *)
}

val instantiation_breaks : Seqtrans.params -> known_value:int -> verdict
(** Pin [x₀ = known_value] in the standard protocol's initial condition
    and compare (50) against the genuine knowledge predicate. *)

type counts = {
  steps_to_done : int;        (** scheduler steps until [j = n] *)
  data_transmissions : int;   (** executions of [snd_tx] *)
  ack_transmissions : int;    (** executions of [rcv_ack] *)
}

val run_standard : ?seed:int -> Seqtrans.params -> counts
(** Simulate the ordinary standard protocol (random-fair scheduler,
    duplicating-only channel) on a random sequence until done. *)

val run_optimal : ?seed:int -> Seqtrans.params -> counts
(** Same, but with [x₀] common knowledge: receiver starts with element 0
    delivered and the sender starts at element 1 — the KBP-consistent
    protocol of §6.4. *)

val pin_x0 : Seqtrans.standard -> int -> Kpt_unity.Program.t
(** The standard protocol's program with [x₀] pinned in [init]. *)

val average_counts : (int -> counts) -> seeds:int -> float * float * float
(** Mean (steps, data transmissions, ack transmissions) over seeds. *)

val pp_counts : Format.formatter -> counts -> unit

val si_of : Kpt_unity.Program.t -> Bdd.t
(** The program's strongest invariant ({!Kpt_unity.Program.si}). *)

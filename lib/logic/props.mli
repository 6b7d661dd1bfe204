(** Semantic checkers for the UNITY specification language (§5).

    These decide, exactly, whether a finite-state program satisfies
    [unless] / [ensures] / [stable] / [invariant] (eqs. 27–33) and the
    fair [↦] (leads-to).  [unless] and [ensures] are literal
    transcriptions of the proof rules (which are sound and complete for
    them); leads-to is decided against the run semantics — every
    unconditionally-fair execution from a reachable [p]-state reaches
    [q] — by the Emerson–Lei fair-EG greatest fixpoint, which coincides
    with derivability in the UNITY proof system on finite spaces. *)

open Kpt_predicate
open Kpt_unity

type t =
  | Invariant of Bdd.t
  | Stable of Bdd.t
  | Unless of Bdd.t * Bdd.t
  | Ensures of Bdd.t * Bdd.t
  | Leadsto of Bdd.t * Bdd.t

val unless : Program.t -> Bdd.t -> Bdd.t -> bool
(** Eq. 27: [(∀s :: [SI ⇒ ((p ∧ ¬q) ⇒ wp.s.(p ∨ q))])]. *)

val ensures : Program.t -> Bdd.t -> Bdd.t -> bool
(** Eq. 28: [unless] plus one statement that establishes [q]. *)

val stable : Program.t -> Bdd.t -> bool
(** Eq. 33: [p unless false]. *)

val invariant : Program.t -> Bdd.t -> bool
(** Eq. 5: [[SI ⇒ p]]. *)

val fair_avoid : Program.t -> Bdd.t -> Bdd.t
(** States of [SI ∧ ¬q] from which some {e fair} infinite execution stays
    in [¬q] forever: the Emerson–Lei fair-EG under unconditional
    fairness, [νZ. Z ∧ ⋀ₜ E[Z U (Z ∧ wp.t.Z)]] from [Z₀ = SI ∧ ¬q].  A
    state survives iff, staying among survivors, it can reach a firing
    of every statement [t] that lands among survivors again.  Symbolic
    throughout — [wp.t] is the exact pre-image of a deterministic, total
    statement and each [E[· U ·]] is a frontier least fixpoint — so no
    state is enumerated.  A conjunct whose target is already [Z] (that
    is, [Z ⊆ wp.t.Z]) is taken as [E[Z U Z] = Z] without its EU.  Each
    outer round (one pass over the statements) consumes one unit of
    {!Engine.checkpoint} fuel and bumps [leadsto.gfp.sweeps]; every
    inner step (one EX of an EU) polls the deadline and bumps
    [leadsto.eu.steps]. *)

val leads_to : Program.t -> Bdd.t -> Bdd.t -> bool
(** Fair leads-to: [p ↦ q] iff no reachable [p ∧ ¬q] state can fairly
    avoid [q] forever. *)

val wlt : Program.t -> Bdd.t -> Bdd.t
(** The {e weakest leads-to} predicate transformer: the weakest [W] such
    that [W ↦ q].  Characterises progress the way [wp] characterises one
    step: [p ↦ q ⟺ [SI ∧ p ⇒ wlt q]] — the progress analogue of the
    strongest-invariant characterisation (eq. 5).  Computed as
    [q ∨ ¬fair_avoid q]. *)

val holds : Program.t -> t -> bool

(** {1 Counterexample extraction}

    The checkers above answer yes/no; these return a witness state when
    the answer is no — reachable states the user can inspect.  The
    witness is the first violating state in {!Space.iter_states} order,
    picked symbolically (least value per variable in declaration order)
    rather than by walking the space. *)

val invariant_counterexample : Program.t -> Bdd.t -> Space.state option
(** A reachable state violating the predicate, if any. *)

val unless_counterexample :
  Program.t -> Bdd.t -> Bdd.t -> (Space.state * string * Space.state) option
(** A reachable [p ∧ ¬q] state, the offending statement's name, and the
    successor violating [p ∨ q]. *)

val leads_to_counterexample : Program.t -> Bdd.t -> Bdd.t -> Space.state option
(** A reachable [p ∧ ¬q] state from which a fair execution can avoid [q]
    forever. *)

val pp : Space.t -> Format.formatter -> t -> unit

(** The per-experiment harness: one function per entry of DESIGN.md §3,
    each regenerating the corresponding paper artifact (figure /
    counterexample / derivation) and printing a table of
    paper-claim vs. measured outcome.  Each returns [true] iff every
    checked claim matches the paper.  [kpt experiments] runs them all. *)

val figure1 : unit -> Kpt_core.Kbp.t
(** Figure 1's knowledge-based protocol: [s0] sets [shared] when [P0]
    knows [¬x], [s1] sets [x] and clears [shared]. *)

val figure2 : strong:bool -> Kpt_core.Kbp.t
(** Figure 2's knowledge-based protocol over [x], [y], [z], under
    [init = ¬y], or [¬y ∧ x] when [~strong:true]. *)

val e1_figure1 : Format.formatter -> bool
(** Figure 1: the KBP with no solution — exhaustive solver finds zero
    fixpoints of Ĝ; chaotic iteration exhibits a 2-cycle. *)

val e2_figure2 : Format.formatter -> bool
(** Figure 2: SI not monotonic in the initial condition; [true ↦ z]
    holds under [init = ¬y] and fails under the stronger
    [init = ¬y ∧ x]. *)

val e3_figure3 : Format.formatter -> bool
(** Figure 3: the knowledge-based sequence transmission protocol —
    assumption-free kernel replay of the §6.2 derivation plus semantic
    model checking of (34)/(35). *)

val e4_figure4 : Format.formatter -> bool
(** Figure 4: the standard protocol — obligations (54),(55),(56),(61),
    (62), spec (34)/(35), liveness failing without St-3/St-4 on the lossy
    channel, and (50)/(51) being exactly the knowledge predicates. *)

val e5_laws : Format.formatter -> bool
(** Eqs. 7–24: wcyl and S5/junctivity laws, including the paper's own
    disjunctivity counterexample (12). *)

val e6_apriori : Format.formatter -> bool
(** §6.4: a priori knowledge of x₀ — the instantiation breaks while the
    protocol stays correct, and the knowledge-optimal variant transmits
    fewer messages. *)

val e7_sst : Format.formatter -> bool
(** Eqs. 2–4 vs §4: sst monotone for standard programs, Ĝ non-monotone
    for Figure 1's KBP. *)

val e8_crossval : Format.formatter -> bool
(** §3 vs [HM90]: the predicate-transformer K agrees with run-based view
    knowledge on the protocol programs. *)

val e9_refinements : Format.formatter -> bool
(** §6 family: ABP, Stenning and the AUY model meet the same
    specification; message economy of the synchronous model. *)

val e10_extensions : Format.formatter -> bool
(** Beyond the paper (documented as extensions in DESIGN.md): knowledge
    dynamics — the protocol text encodes its own recall while knowledge
    of the peer's counter is forgettable; the [HM90] view spectrum —
    perfect recall strictly refines the paper's state view; and a
    refinement check — the duplicating-only channel refines the lossy
    one, transferring safety. *)

val run_all : Format.formatter -> (string * bool) list
(** Run E1–E10 in order; returns the verdict per experiment. *)

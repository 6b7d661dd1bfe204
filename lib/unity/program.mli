(** UNITY programs (§5): variable declarations (carried by the space), a
    predicate [init] characterising allowed initial states, and a non-empty
    set of guarded assignment statements, executed forever under
    unconditional fairness.

    This module also implements the semantic machinery of §2:
    [SP] (eq. 26), the strongest stable predicate [sst] (eqs. 1–3) and the
    strongest invariant [SI = sst.init] (eq. 5), all as exact BDD
    fixpoints. *)

open Kpt_predicate

type t

exception Ill_formed of string

val make :
  Space.t -> name:string -> init:Expr.t -> ?processes:Process.t list -> Stmt.t list -> t
(** Build and validate a program.
    @raise Ill_formed if the statement list is empty, some statement can
    drive a variable out of its range (a totality violation — the witness
    state is reported), or [init] is unsatisfiable. *)

val make_with_init_pred :
  Space.t -> name:string -> init:Bdd.t -> ?processes:Process.t list -> Stmt.t list -> t
(** Same with a pre-compiled initial predicate (used when instantiating
    knowledge-based protocols, whose [init] is already a BDD). *)

val space : t -> Space.t
val name : t -> string
val init : t -> Bdd.t
(** Initial-states predicate, normalised to the domain. *)

val statements : t -> Stmt.t list
val processes : t -> Process.t list
val find_process : t -> string -> Process.t
(** @raise Not_found *)

val sp_pred : t -> Bdd.t -> Bdd.t
(** [SP.p ≡ (∃s : s a statement : sp.s.p)] (eq. 26): the strongest
    predicate holding after one (any) transition from [p]. *)

val pre : t -> Bdd.t -> Bdd.t
(** [EX.y ≡ (∃s : s a statement : wp.s.y)]: the states from which {e
    some} statement reaches [y] in one step (a disabled statement is a
    skip, so a [y]-state is its own predecessor).  Statements are
    deterministic, so [wp.s] is the exact pre-image along [s]; like
    [wp], it holds vacuously wherever a statement has no successor
    inside the bit encoding, so restrict it to the domain for a set of
    states. *)

val stable : t -> Bdd.t -> bool
(** [[SP.p ⇒ p]] on the domain: once true, [p] stays true (§2). *)

val sst : t -> Bdd.t -> Bdd.t
(** Strongest stable predicate weaker than [p] (eq. 1), computed by the
    Knaster–Tarski iteration of eq. 3: [(∃i :: fⁱ.false)] for
    [f.x = SP.x ∨ p].  Exact on finite spaces.  Implemented as a chained
    iteration: within a round each statement images the round's frontier
    plus every state the earlier statements of the round added, and the
    next round's frontier is everything the round added.  Only the fire
    branch of each statement is imaged ({!Stmt.post}): its skip branch
    never leaves the frontier, which is already in the result.  It
    reaches the same least fixpoint (and, BDDs being canonical, the
    identical predicate) in fewer rounds.  Each round consumes one unit of
    {!Engine.checkpoint} fuel and bumps [sst.iterations]. *)

val si : t -> Bdd.t
(** Strongest invariant [sst.init] — the reachable states (cached). *)

val invariant : t -> Bdd.t -> bool
(** [invariant p ≝ [SI ⇒ p]] (eq. 5). *)

val fixed_points : t -> Bdd.t
(** States where no statement changes the state — UNITY's analogue of
    termination (§5). *)

val sub_program : ?name:string -> t -> Stmt.t list -> t
(** The slicing constructor: the program over a subset of [t]'s own
    statements (same space, initial condition and processes).  Validation
    is skipped — the statements were already proved total and [init]
    satisfiable when [t] was built — so the subset must consist of
    (physically) [t]'s statements.
    @raise Ill_formed on an empty subset or a foreign statement. *)

val union : ?name:string -> t -> t -> t
(** UNITY program composition [F ∥ G] (the union of Chandy–Misra):
    statements are unioned, initial conditions conjoined.  Both programs
    must live in the same space.  The classical union theorem —
    [p unless q] holds of [F ∥ G] iff it holds of both [F] and [G] — is
    exercised in the test suite.
    @raise Ill_formed if the spaces differ or the combined initial
    condition is unsatisfiable. *)

val pp : Format.formatter -> t -> unit

(** Guarded, multiple, deterministic, terminating assignment statements
    (§5): [x, y := f(x,y), g(x,y,z) if b].

    Execution semantics (paper §4): the guard is evaluated; if it holds,
    all right-hand sides are evaluated in the {e old} state and assigned
    simultaneously; otherwise the statement has no effect (skip).  Hence
    every statement is total and deterministic, and [wp = wlp].

    Guards are either expressions or pre-compiled predicates; the latter
    is how knowledge-based protocols are instantiated with a candidate
    strongest invariant (§4: "replacing all the knowledge predicates with
    the corresponding standard predicate"). *)

open Kpt_predicate

type guard = Gexpr of Expr.t | Gpred of Bdd.t

type cache
(** Memoised compiled predicates (guard, update schedule, overflow set),
    keyed on the space they were compiled for.  The guard-independent
    part is shared across {!with_guard_pred} copies, so re-instantiating
    a knowledge-based protocol at a new candidate invariant recompiles
    only the guards. *)

type t = private {
  sname : string;
  guard : guard;
  assigns : (Space.var * Expr.t) list;
  cache : cache;
}

exception Ill_formed of string

val make : name:string -> ?guard:Expr.t -> (Space.var * Expr.t) list -> t
(** A statement with an optional guard (default [true]).
    @raise Ill_formed on duplicate assignment targets or sort mismatches
    between a target and its right-hand side. *)

val with_guard_pred : t -> Bdd.t -> t
(** Replace the guard by a pre-compiled predicate over current bits. *)

val array_write : Space.var array -> index:Expr.t -> Expr.t -> (Space.var * Expr.t) list
(** Simultaneous assignments implementing [arr[index] := rhs]: every
    element [k] is assigned [if index = k then rhs else arr[k]]. *)

val name : t -> string
val guard_pred : Space.t -> t -> Bdd.t
(** The guard as a predicate over current bits. *)

val assigns : t -> (Space.var * Expr.t) list
(** The simultaneous assignments, in the order given to {!make}. *)

val assigned_vars : t -> Space.var list

val totality_violation : Space.t -> t -> Bdd.t
(** States (within the domain) where the guard holds but some right-hand
    side falls outside its target's range.  Must be [false] for the
    statement to be a legal UNITY statement on this space; {!Program.make}
    enforces this. *)

val post : Space.t -> t -> Bdd.t -> Bdd.t
(** The fire branch of {!sp}: the exact image of [p ∧ g] (within the
    domain), over current bits.  Computed frame-free — the updates of the
    assigned variables are conjoined one by one, each assigned current
    bit is ∃-quantified as soon as no remaining update reads it, and the
    last relational product also moves the assigned next bits back onto
    their current bits ({!Bdd.and_exists} over a mixed cube); unassigned
    variables never leave their current bits. *)

val sp : Space.t -> t -> Bdd.t -> Bdd.t
(** Strongest postcondition of one statement ([sp.s.p], eq. 26's
    ingredient): the exact image of [p], over current bits,
    [post p ∨ (p ∧ domain ∧ ¬g)].  Agrees with the image under the
    monolithic relation
    [(g ∧ ⋀_{v∈A} v' = rhs_v ∧ ⋀_{v∉A} v' = v) ∨ (¬g ∧ ⋀_v v' = v)],
    which the library never builds. *)

val wp : Space.t -> t -> Bdd.t -> Bdd.t
(** Weakest precondition ([= wlp], §5): states whose unique successor
    satisfies the postcondition — [ite(g, p[A := rhs], p)] for the
    assigned variables [A].  No complement is built and [p] is never
    renamed: the fire branch is [(∃A. p ∧ U')[A' := A] ∨ nofit], where
    [U'] conjoins the reversed updates [v = rhs_v[A := A']], each
    followed by the quantification of its target, the last product moves
    [A'] back onto [A], and [nofit] (built once per statement) holds
    exactly where some right-hand side does not fit its target's bits —
    there the statement has no successor and wp holds vacuously, as in
    the complement form [¬∃A'. (¬p)[A := A'] ∧ U]. *)

val unchanged : Space.t -> t -> Bdd.t
(** States the statement maps to themselves (used for fixed points):
    [g ⇒ ⋀_{v∈A} v = rhs_v] over the assigned variables [A]. *)

val exec : Space.t -> t -> Space.state -> Space.state
(** Concrete execution (fresh state array).  Out-of-range results raise
    {!Ill_formed} — they indicate a totality violation. *)

val pp : Format.formatter -> t -> unit

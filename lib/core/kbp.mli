(** Knowledge-based protocols (§4): UNITY programs whose guards are
    knowledge formulas.

    A KBP does not directly denote a set of runs: its [SP] depends on the
    strongest invariant [SI], which depends on [SP] (eq. 25).  Following
    the paper we take a {e solution} of the KBP to be a predicate [X] such
    that instantiating every knowledge guard at [SI := X] yields a
    standard program whose strongest invariant is [X] itself — a fixpoint
    of the operator [Ĝ(X) = sst_{P[X]}.init].

    Because [ŜP] is not monotonic (§4), a KBP may have {e no} solution
    (Figure 1), several, and its solutions are not monotonic in the
    initial condition (Figure 2).  {!solutions} decides all of this
    exactly on small spaces by exhaustive enumeration over candidate
    invariants; {!solve} is the cheap heuristic that finds the fixpoint
    when chaotic iteration happens to converge, and exhibits the cycle
    that witnesses non-existence when it does not. *)

open Kpt_predicate
open Kpt_unity

type kstmt = {
  kname : string;
  kguard : Kform.t;
  kassigns : (Space.var * Expr.t) list;
}

type t

exception Ill_formed of string

val kstmt : name:string -> guard:Kform.t -> (Space.var * Expr.t) list -> kstmt

val make :
  Space.t ->
  name:string ->
  init:Expr.t ->
  processes:Process.t list ->
  kstmt list ->
  t
(** Build a KBP.  Every process named in a guard's [K] must appear in
    [processes]; sorts are checked as for standard statements.
    @raise Ill_formed otherwise. *)

val sub : ?name:string -> t -> kstmt list -> t
(** The slicing constructor: the KBP over a subset of [t]'s own
    statements (same space, initial condition and processes; the
    validated statement bases are carried along).  The subset must
    consist of (physically) [t]'s statements.
    @raise Ill_formed on an empty subset or a foreign statement. *)

val space : t -> Space.t
val name : t -> string
val init : t -> Bdd.t
val processes : t -> Process.t list
val kstmts : t -> kstmt list

val is_standard : t -> bool
(** True iff no guard mentions knowledge: the KBP is an ordinary program. *)

val to_standard_program : t -> Program.t
(** For a KBP with no knowledge guards: the ordinary UNITY program it
    denotes.  @raise Ill_formed if some guard mentions knowledge. *)

val instantiate : t -> si:Bdd.t -> Program.t
(** The standard program obtained by replacing every knowledge guard by
    its value at the candidate invariant (§4).
    @raise Program.Ill_formed on a totality violation — an instantiation
    can be illegal for some candidates. *)

val g_operator : t -> Bdd.t -> Bdd.t
(** [Ĝ(X) = sst_{P[X]}.init] — the operator whose fixpoints are the
    solutions of eq. 25. *)

val universe : t -> Bdd.t
(** The over-approximation of every state a solution can contain: the
    strongest invariant of the unguarded statement bodies, each
    restricted to the states where it is defined
    ({!Kpt_unity.Stmt.totality_violation}).  One symbolic [sst]. *)

exception Too_many_candidates of { free : Bigcount.t; cap : int }
(** A knowledge KBP whose universe has [free] states outside [init],
    more than the [cap] (22) that exhaustive enumeration of the [2^free]
    candidate invariants is allowed. *)

val solutions : t -> Bdd.t list
(** All solutions.  A standard KBP ({!is_standard}) has exactly one,
    [Ĝ(init)], or none when its instantiation is ill-formed.  Otherwise
    by exhaustive enumeration of candidate invariants: [init] plus every
    subset of the free states of the {!universe}.  Results are
    normalised predicates, strongest first (by state count; ties in a
    fixed order that follows {!Space.iter_states}, not hashing).
    @raise Too_many_candidates past the 2^22 candidate cap. *)

val strongest_solution : t -> Bdd.t option
(** The solution implied by every other solution, if one exists — the
    paper's [SI] when the KBP is well-posed with a unique strongest
    fixpoint.  @raise Too_many_candidates as {!solutions}. *)

type outcome =
  | Converged of { si : Bdd.t; steps : int }
      (** a genuine solution of eq. 25 and the number of Ĝ-steps *)
  | Diverged of { orbit : Bdd.t list; steps : int }
      (** the orbit of a non-trivial cycle of the candidate sequence —
          the oscillation witness certifying that chaotic iteration finds
          no solution (the paper's Figure 1 behaviour) *)
  | Budget_exhausted of { reason : Budget.reason; steps : int; candidate : Bdd.t }
      (** the budget ran out; [candidate] is the newest candidate
          invariant computed before exhaustion *)

val solve : ?budget:Budget.limits -> t -> outcome
(** Chaotic iteration [X₀ = init, X_{k+1} = Ĝ(X_k)] with cycle
    detection.  Every Ĝ-step consumes one unit of {!Engine.checkpoint}
    fuel; on a finite space the sequence repeats, so it always ends.
    Runs under [budget], freshly armed on the current engine
    ({!Engine.with_budget}), or without [budget] under whatever budget
    the caller has armed.  Exhaustion — whether raised from the
    iteration loop, [Program.sst] or the BDD allocator — degrades to
    [Budget_exhausted] with the newest candidate instead of escaping. *)

val pp : Format.formatter -> t -> unit

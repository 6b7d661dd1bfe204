(** Reduced ordered binary decision diagrams (ROBDDs), hash-consed.

    This module is the semantic bedrock of the whole library: the paper
    treats predicates as {e semantic objects} — Boolean-valued total
    functions on the state space — and ROBDDs give each such function a
    canonical representative, so predicate equality ([[p ≡ q]] in the
    paper's notation) is decided by comparing node ids ({!equal}), and
    all the fixpoints ([sst], [SI], fair leads-to) terminate by that
    comparison.

    All nodes live inside a {!manager}; mixing nodes from different
    managers is a programming error (detected by [assert] in debug
    builds).  Variables are non-negative integers; initially variable [i]
    sits at level [i] of the order (smaller indices nearer the root), but
    the manager may {e reorder} — permute the variable/level map — either
    on demand ({!reorder}) or automatically ({!set_auto_reorder}).
    Either way a reorder runs only between operations, never inside one:
    an automatic sift is decided at the entry of an outermost operation,
    so an operation that grows the table past the threshold finishes in
    the order it started with and the next one sifts first.  Reordering
    is semantics-transparent: nodes are rewritten in place, so every
    handle keeps denoting the same Boolean function and canonicity
    (semantic equality = id equality) is preserved throughout.

    Nodes live in a flat per-manager store, outside the OCaml heap's view;
    a {!t} is a small handle on one of them.  Nodes are freed only by the
    sweep that brackets every reorder, which keeps every node a live
    handle can reach and recycles the ids of the rest. *)

type manager
(** Mutable node store: the exact hash-consing unique table plus a packed
    direct-mapped operation cache (CUDD-style).  Both tables pack each
    entry's key into one native int stored beside its payload, so probes
    are a single compare and allocate nothing; both start small and grow
    on demand.  The op-cache is lossy — an entry overwritten on collision
    only costs a recomputation, never correctness — while the unique
    table is exact at any size (its key packs two 31-bit child ids, and
    no id reaches 2{^31}).

    The op-cache holds the results of the boolean operators and of the
    quantifiers and relational product, which also move pair bits (keyed
    on the operands and the {!cube}).  Every entry is keyed on uids, which
    keep their denotation across a level swap, so entries survive from
    one call to the next; the garbage collection that brackets every
    reorder (and {!clear_caches}) empties the cache. *)

type t
(** A handle on a BDD node of one manager.  Canonical: two handles of the
    same manager denote the same Boolean function iff they name the same
    node ({!equal}), whether or not they are physically equal — compare
    handles with {!equal}, never with [==] or [=]. *)

val create : ?cache_size:int -> ?reorder:bool -> unit -> manager
(** Fresh manager.  The unique table sizes itself (per-level subtables
    grow as needed); [cache_size] is the {e maximum} slot count
    of the direct-mapped operation cache, rounded up to a power of two.
    The cache starts small and grows on demand, so creating a manager is
    cheap even with a large [cache_size].  [reorder] (default [false])
    enables automatic sifting as by [set_auto_reorder m true]. *)

val reorder : manager -> unit
(** Run one sifting pass now (Rudell's algorithm over adjacent-level
    swaps, moving interleaved current/next variable pairs as blocks).
    All existing handles remain valid and canonical.  No-op while another
    operation of the same manager is in flight. *)

val set_auto_reorder : manager -> ?threshold:int -> bool -> unit
(** Enable or disable automatic reordering.  When enabled, a sifting pass
    runs at the entry of the first top-level operation that finds the
    live node count at or past [threshold] (default 2{^16}); after each
    pass the threshold doubles away from the surviving node count, so a
    workload that keeps growing re-sifts at geometrically coarser
    intervals. *)

val clear_caches : manager -> unit
(** Empty the operation cache (the unique table is kept, so existing
    nodes stay valid).  Useful between unrelated fixpoint computations. *)

val tru : manager -> t
(** The constant-true predicate. *)

val fls : manager -> t
(** The constant-false predicate. *)

val var : manager -> int -> t
(** [var m i] is the predicate "variable [i] is true". *)

val nvar : manager -> int -> t
(** [nvar m i] is the predicate "variable [i] is false". *)

val uid : t -> int
(** The node's id.  Stable while any handle on the node is alive, and
    unique among the live nodes of the manager: once every handle on a
    node is gone, a sweep may free the node and give its id to a new
    one.  A table keyed by uids must keep the handles of its keys alive. *)

val equal : t -> t -> bool
(** Same node, hence the same function (handles of one manager). *)

val is_true : t -> bool
val is_false : t -> bool

val not_ : manager -> t -> t
val and_ : manager -> t -> t -> t

val diff : manager -> t -> t -> t
(** [diff m a b] is [a ∧ ¬b], computed in one pass without building
    [¬b]: the set difference every frontier of a fixpoint needs. *)

val or_ : manager -> t -> t -> t
val xor : manager -> t -> t -> t
val imp : manager -> t -> t -> t
val iff : manager -> t -> t -> t

val ite : manager -> t -> t -> t -> t
(** [ite m c a b] is the pointwise "if [c] then [a] else [b]". *)

val conj : manager -> t list -> t
(** n-ary conjunction ([tru] on the empty list), combined as a balanced
    tree so intermediate BDDs stay small. *)

val disj : manager -> t list -> t
(** n-ary disjunction ([fls] on the empty list), balanced like {!conj}. *)

val implies : manager -> t -> t -> bool
(** The everywhere operator applied to an implication: [[p ⇒ q]].
    Decided by an early-exit containment walk that builds no node. *)

val restrict : manager -> t -> int -> bool -> t
(** Cofactor: fix variable [i] to the given polarity. *)

type cube
(** A chain of literals, one per variable: a {e quantified} variable is a
    positive literal, a {e moved} one a negative literal.  The empty cube
    is [tru].  Build it once and reuse it: the op-cache keys
    quantification and move results on it. *)

val cube : manager -> ?move:int list -> int list -> cube
(** [cube m ~move vars] quantifies [vars] and moves each variable [v] of
    [move] (default none) to its pair partner [v lxor 1] — current bit
    [2k] ↔ next bit [2k+1].  Duplicates within one list are ignored.
    Variables not registered yet are registered.
    @raise Invalid_argument when a variable is in both lists. *)

val exists : manager -> cube -> t -> t
(** Existential quantification over the cube's quantified variables, then
    the move of its moved ones, in one pass. *)

val forall : manager -> cube -> t -> t
(** Universal quantification over the cube's variables, [¬∃¬].
    [forall m vs p] is the paper's [(∀ vs :: p)] used to build weakest
    cylinders (eq. 6). *)

val and_exists : manager -> cube -> t -> t -> t
(** Relational product [∃vs. a ∧ b] (CUDD's AndAbstract), computed
    without building [a ∧ b] in full, with the cube's moved variables
    renamed to their partners in the same pass (Sylvan's
    [relnext]/[relprev]).  Workhorse of image computation ([sp]) and of
    [wp]: the last product of each moves the assigned next bits back
    onto the current ones.  Pairs stay adjacent in every order the
    manager reaches, so a move shifts a node by one level.
    @raise Invalid_argument when the result would break the variable
    order, which happens when the partner of a moved variable survives on
    the same path (it is neither quantified nor moved itself).  The
    result is never a non-canonical node. *)

val swap_pairs : manager -> int list -> t -> t
(** [swap_pairs m vs p] moves every variable [v] of [vs] to its pair
    partner [v lxor 1]: {!exists} over the move-only cube
    [cube m ~move:vs []].
    @raise Invalid_argument as {!and_exists} does. *)

val rename : manager -> (int -> int) -> t -> t
(** Variable renaming by an arbitrary map.  A map that is strictly
    monotone on the support of the argument {e with respect to the
    current level order} takes a one-pass rebuild; any other map is
    handled correctly through a slower compose-based path.  For the
    current↔next moves use {!swap_pairs}, which is op-cached. *)

val support : manager -> t -> int list
(** Variables the predicate depends on, ascending. *)

val depends_on : manager -> t -> int -> bool
(** [depends_on m p i] iff the function [p] is not independent of
    variable [i] (the paper's notion of (in)dependence, §3). *)

val size : manager -> t -> int
(** Number of distinct internal nodes reachable from the root. *)

val sat_count_exact : manager -> nvars:int -> t -> Bigcount.t
(** Exact number of satisfying assignments over variables [0..nvars-1];
    correct at any size (no float rounding past 2{^53}, no overflow). *)

type stats = {
  nodes_created : int;  (** nodes created over the manager's lifetime, leaves included *)
  live_nodes : int;  (** nodes currently in the unique table (+ leaves) *)
  unique_slots : int;  (** open-addressing slots of the unique table *)
  unique_load : float;  (** occupancy fraction of the unique table *)
  cache_slots : int;  (** current op-cache slot count (grows on demand) *)
}

val stats : manager -> stats
(** Structural snapshot of a manager's tables.  The {e dynamic} side —
    op-cache hits/misses/stores, grow events, peak node count — is kept
    in the process-global [Kpt_obs] counters (["bdd.*"]).  The hottest
    of them (op-cache hits, misses and stores, nodes created, the node
    peak) are batched in the manager and flushed when the outermost
    operation returns or raises, so they are exact between
    operations. *)

val eval : t -> (int -> bool) -> bool
(** Evaluate the predicate at a point given as a variable valuation. *)

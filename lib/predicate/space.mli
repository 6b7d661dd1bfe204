(** Finite-domain state spaces.

    A space owns a {!Bdd.manager} and a set of typed program variables
    (Booleans, bounded naturals, enumerations).  Each variable is encoded
    on a block of BDD bits; every bit slot [s] carries a {e current} copy
    (BDD variable [2s]) and a {e next} copy (BDD variable [2s+1]), so
    moving the assigned variables of a statement onto their next bits and
    back ({!Bdd.swap_pairs}) is order-preserving and cheap.

    The paper's "state space" is exactly the set of type-correct
    valuations of these variables; a {e predicate} is a BDD over current
    bits.  Next bits appear only inside a statement's [sp]/[wp]. *)

type t
(** A state space (mutable: variables may be declared at any time). *)

type var
(** A program variable of the space. *)

type state = int array
(** A concrete point of the state space: [state.(idx v)] is the value of
    [v] as an integer (Booleans: 0/1; enums: value index). *)

val create : ?engine:Engine.t -> unit -> t
(** [create ()] makes a space under the current engine
    ({!Engine.current} — {!Engine.default} outside any {!Engine.use});
    pass [~engine] to tie the space to an explicit engine context. *)

val manager : t -> Bdd.manager
(** The BDD manager all predicates of this space live in. *)

val engine : t -> Engine.t
(** The engine context this space was created under.  The engine's
    {!Engine.reorder_mode} at creation time decides whether the space's
    manager sifts automatically ([Reorder_auto]) or only on explicit
    {!reorder} calls. *)

val reorder : t -> unit
(** Run one sifting pass on the space's manager now (see {!Bdd.reorder}).
    All predicates of the space remain valid and canonical. *)

val bool_var : t -> string -> var
(** Declare a Boolean variable.  @raise Invalid_argument on a duplicate
    name. *)

val nat_var : t -> string -> max:int -> var
(** Declare a bounded natural with values [0..max]. *)

val enum_var : t -> string -> values:string array -> var
(** Declare an enumeration; values are indices into [values]. *)

val vars : t -> var list
(** All variables, in declaration order. *)

val find : t -> string -> var
(** Look a variable up by name.  @raise Not_found. *)

val name : var -> string
val idx : var -> int

val card : var -> int
(** Number of values of the variable's type. *)

val width : var -> int
(** Bits used to encode the variable. *)

val value_name : var -> int -> string
(** Human-readable value ("true", "3", enum label). *)

val enum_labels : var -> string list
(** The labels of an enumeration, in value order; [[]] for Booleans
    and naturals.  Unlike a {!value_name} walk, this costs nothing for a
    natural with a huge bound. *)

val current_bits : var -> int list
val next_bits : var -> int list
val all_current_bits : t -> int list

val cur_vec : t -> var -> Bitvec.t
(** The variable's value as a symbolic bit-vector over current bits. *)

val next_vec : t -> var -> Bitvec.t

val domain : t -> Bdd.t
(** Current-bit predicate: every variable is within its range (only
    non-power-of-two cardinalities contribute).  Cached; invalidated by
    later declarations. *)

val quant_data : t -> var list -> Bdd.cube * Bdd.t
(** Quantification data for a set of program variables: the cube of their
    current bits and the conjunction of their range constraints (the
    "local domain" that keeps quantification over type-correct values).
    Memoised per variable set — the hot path of [wcyl]/[K_i]. *)

val complement : t -> var list -> var list
(** The paper's [V̄]: all variables of the space not in the given list, in
    declaration order.  Memoised per variable set (and recomputed if new
    variables have been declared since). *)

val state_count_exact : t -> Bigcount.t
(** Exact cardinality of the state space (the product of the variable
    cardinalities), at any size. *)

val iter_states : t -> (state -> unit) -> unit
(** Enumerate every type-correct state.  The callback's array is reused;
    copy it if you keep it. *)

val pred_of_state : t -> state -> Bdd.t
(** The singleton predicate holding exactly at the given state. *)

val holds_at : t -> Bdd.t -> state -> bool
(** Evaluate a current-bit predicate at a state. *)

val states_of : t -> Bdd.t -> state list
(** All states satisfying a predicate, in {!iter_states} order.  Walked
    symbolically (bit by bit, entering only branches where the predicate
    stays satisfiable within the domain), so the cost is proportional to
    the number of states produced — about two conjunctions per bit per
    state — not to the size of the space.  Polls the engine budget once
    per state. *)

val first_state : t -> Bdd.t -> state option
(** The head of {!states_of}, or [None]: the same walk, stopped at its
    first state. *)

val count_states_exact : t -> Bdd.t -> Bigcount.t
(** Exact number of states satisfying a predicate, computed {e
    symbolically} (an exact model count of the predicate restricted to
    the domain): O(BDD nodes), not O(state space). *)

val count_states_of : t -> Bdd.t -> int
(** [List.length (states_of sp p)] via {!count_states_exact}, clamped to
    [max_int] past the native range.  For trace-event fields and small
    spaces only: a count a user reads is rendered from
    {!count_states_exact}. *)

val pp_state : t -> Format.formatter -> state -> unit
(** ["⟨x=1 y=true …⟩"]. *)

val pp_pred : t -> Format.formatter -> Bdd.t -> unit
(** Print a predicate as the set of its states, in {!iter_states} order.
    At most the first 100 are listed; a larger set ends in
    ["… (M more)"], with [M] counted by {!count_states_exact}.  The walk
    stops at the 101st state, so the cost follows the states printed,
    not the size of the set or of the space. *)

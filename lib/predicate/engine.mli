(** Explicit engine contexts for the symbolic core.

    Historically the engine's mutable state fell in two tiers: the BDD
    unique table, op-cache and [Space] memo tables are owned by the
    {!Bdd.manager} each {!Space.t} creates (so two spaces never share
    them — already re-entrant), while the observability layer
    ({!Kpt_obs} counters, spans, sink) was process-global.  An
    [Engine.t] names the context a space and its metrics belong to: one
    engine per domain (or per task), and everything it touches is
    single-owner.

    Call sites that never say the word keep working: {!Space.create}
    defaults to {!default}, which reports into the root metric context —
    exactly the pre-engine behaviour.  The parallel pool ({!Kpt_par})
    gives each task {!create} + {!use}, then {!merge_metrics} after the
    join. *)

type t
(** An engine context: an identity plus the {!Kpt_obs.Ctx.t} its
    workloads report into.  Cheap (two words); thread-safe to {e pass}
    between domains, but at most one domain may be running under it at a
    time. *)

val default : t
(** The process-default engine, backed by {!Kpt_obs.Ctx.root}.  What
    every call site that predates engines gets. *)

val create : unit -> t
(** A fresh engine with a private, zeroed metric context. *)

val id : t -> int
(** A process-unique id ({!default} is 0); useful in logs and tests. *)

val is_default : t -> bool

val obs : t -> Kpt_obs.Ctx.t
(** The metric context this engine's workloads report into. *)

val current : unit -> t
(** The engine of the innermost enclosing {!use} on this domain;
    {!default} outside any. *)

val use : t -> (unit -> 'a) -> 'a
(** [use e f] runs [f] with [e] as the domain's {!current} engine and
    [e]'s metric context installed (both restored afterwards, also on
    exceptions).  All counter bumps, spans and trace events inside [f]
    land in [e], and spaces created inside [f] belong to it. *)

val merge_metrics : into:t -> t -> unit
(** [merge_metrics ~into src] folds [src]'s counters and spans into
    [into] ({!Kpt_obs.Ctx.merge} semantics: sums, [max] for
    high-watermarks).  Only after [src]'s owning domain has joined. *)

val counters : t -> (string * int) list
val spans : t -> (string * int64 * int) list

(** {2 Variable-reordering policy}

    Whether the BDD managers of spaces created under an engine reorder
    their variables dynamically.  The policy is engine configuration
    rather than a [Space.create] argument so the CLI can set it once and
    have every space — program, KBP bases, knowledge cylinders, worker
    tasks — pick it up uniformly. *)

type reorder_mode =
  | Reorder_off  (** static variable order (the historical behaviour) *)
  | Reorder_auto  (** sifting triggered by node-growth thresholds *)

val set_default_reorder_mode : reorder_mode -> unit
(** Set the process-wide default (initially {!Reorder_off}).  Read by
    every engine without an explicit override, including freshly created
    pool-task engines. *)

val default_reorder_mode : unit -> reorder_mode

val reorder_mode : t -> reorder_mode
(** The engine's effective policy: its override if set, else the process
    default. *)

val set_reorder_mode : t -> reorder_mode option -> unit
(** Override (or, with [None], un-override) the policy for one engine. *)

(** {2 Resource budgets}

    A budget ({!Budget.t}) rides on the engine: the fixpoint loops and
    the BDD node allocator call {!checkpoint}/{!check_nodes} against the
    {e current} engine's budget, so arming one bounds everything the
    enclosing {!use} runs — and the parallel pool gets per-task
    deadlines by arming each task's private engine. *)

val set_budget : t -> Budget.t option -> unit
(** Install (or clear) an armed budget on [t]. *)

val budget : t -> Budget.t option

val with_budget : ?engine:t -> Budget.limits -> (unit -> 'a) -> 'a
(** [with_budget limits f] arms a fresh budget from [limits] on [engine]
    (default: the {!current} engine) for the duration of [f], restoring
    the previous budget afterwards.  {!Budget.unlimited} arms nothing.
    Does not catch {!Budget.Exhausted} — that is the caller's choice. *)

val checkpoint : ?fuel:int -> unit -> unit
(** Check the current engine's budget (deadline, and consume [fuel]
    units if given). No-op — one domain-local read — when no budget is
    armed. Raises {!Budget.Exhausted}. *)

val check_nodes : int -> unit
(** Check the current engine's node ceiling and deadline against a node
    count. No-op when no budget is armed. Raises {!Budget.Exhausted}. *)

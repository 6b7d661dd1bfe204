(** String-returning command drivers — the single implementation behind
    both the [kpt] CLI and the [kpt serve] daemon.

    Each function here is one CLI command body ([kpt check] in both
    forms, [kpt lint], [kpt stats], [kpt solve], [kpt solve-file],
    [kpt slice], [kpt verify], [kpt matrix]) written to {e return} its
    rendered output instead of printing it: the CLI prints the strings,
    the daemon ships them over the wire (the file commands), and
    byte-identity between the two is structural rather than pinned by
    sampling.

    {b Per-request scoping.}  Every call runs under a fresh {!Engine.t}
    ({!Kpt_obs.Ctx.reset} on its zeroed context, belt and braces), arms
    its budget {e at call time} (so a [--timeout] deadline is relative
    to request start, never to daemon start or engine creation), pins
    the requested reorder policy on that engine — never the process
    default, which other requests may be reading; {!Kpt_par} forwards
    it to its per-task engines — and merges the engine's metrics into
    the caller's context before returning.  Nothing armed, counted or
    hooked for one call is visible to the next — the warm-engine
    invariant the serve tests pin. *)

open Kpt_predicate

type options = {
  jobs : int option;  (** pool width for multi-file commands; [None] = auto *)
  json : bool;
  warn_error : bool;
  quiet : bool;
  slice : bool;  (** verdict-preserving cone-of-influence reduction *)
  semantic : bool;  (** [kpt lint --semantic] (KPT1xx tier) *)
  timings : bool;  (** [kpt stats --json --timings] *)
  trace : bool;  (** stream fixpoint events (to [err], or a custom sink) *)
  wrt : string list;  (** [kpt slice --wrt] properties, in option order *)
  limits : Budget.limits;
  reorder : Engine.reorder_mode;
}

val default_options : options
(** Everything off, no budget, [reorder = Reorder_off] (the in-process
    default; the CLI passes its own [--reorder] value, default [auto]). *)

type outcome = {
  code : int;  (** the CLI exit code: 0 ok, 1 findings, 2 usage, 3 budget *)
  out : string;  (** bytes the command would write to stdout *)
  err : string;  (** bytes the command would write to stderr *)
}

type sink = string -> (string * int) list -> unit
(** A {!Kpt_obs} event sink.  When given, it replaces the default
    [trace] rendering (events into [err]) — the daemon streams events
    over the socket this way. *)

val exit_resource : int
(** 3: the exit code of an exhausted budget (README exit-code contract). *)

val emit_outcome : outcome -> int
(** Write [out] to stdout and [err] to stderr (each flushed) and return
    [code] — how the CLI, direct or served, finishes a command. *)

val with_loaded :
  file:string ->
  src:string ->
  Format.formatter ->
  (Space.t * Kpt_core.Kbp.t -> int) ->
  int
(** [with_loaded ~file ~src epf f] loads [src] once through
    {!Diagnostic.load} and runs [f] on the spec.  The load's diagnostic,
    or the {!Diagnostic.of_exn} diagnostic of a spec error [f]'s solver
    raises (a non-total assignment, say), is rendered once to [epf] as
    [file:line:col: error[KPTnnn]: …] and gives exit code 1 ([3] for
    [KPT041]).  Other exceptions out of [f] propagate. *)

val compile_property : Space.t -> string -> Bdd.t
(** Parse, elaborate and compile a property string (a [--wrt],
    [--invariant] or [--fact] argument) to a predicate.
    @raise Failure ["in \"S\": msg"] on a lexical, syntax or
    elaboration error. *)

val resolved_program : Kpt_core.Kbp.t -> Kpt_unity.Program.t
(** The standard program of a standard [Kbp.t]; otherwise the KBP
    instantiated at its strongest solution.
    @raise Failure when it has no unique strongest solution, or too many
    candidate states to enumerate ({!Kpt_core.Kbp.Too_many_candidates}). *)

val check : ?sink:sink -> options -> (string * string) list -> outcome
(** The batch form of [kpt check]: [(file, source)] pairs through
    {!Check.run_sources}.  The built-in-protocol form is
    {!check_protocol}. *)

val with_params :
  Format.formatter ->
  Kpt_protocols.Builtin.t ->
  n:int ->
  a:int ->
  (Kpt_protocols.Seqtrans.params -> int) ->
  int
(** [with_params epf b ~n ~a f] runs [f] on the parameters when [b]
    accepts them.  Otherwise it prints one [error: LABEL: CONSTRAINT]
    line to [epf] and returns the usage-error exit code 2. *)

val check_protocol :
  ?sink:sink ->
  options ->
  Kpt_protocols.Builtin.t ->
  n:int ->
  a:int ->
  lossy:bool ->
  fault:Kpt_fault.Model.t option ->
  outcome
(** [kpt check <protocol>]: the protocol at horizon [n], alphabet [a],
    on the channel [fault] (else [lossy]) selects; its reachable states,
    (34), and (35)@k for every [k < n], under [options.limits].  Exit 1
    when a property fails, 2 for [lossy]/[fault] without a channel or
    for parameters the protocol rejects (see {!with_params}). *)

val lint : ?sink:sink -> options -> (string * string) list -> outcome
(** [kpt lint] via {!Lint.run_sources}; [options.semantic] adds the
    KPT1xx tier, [options.limits] overrides its analysis budget. *)

val stats : ?sink:sink -> options -> (string * string) list -> outcome
(** [kpt stats]: one file keeps the historical single-file rendering;
    several files are profiled on the pool and rendered in input order
    (a JSON array under [options.json]). *)

val solve_model : ?sink:sink -> options -> (unit -> Kpt_core.Kbp.t) -> outcome
(** [kpt solve MODEL]: build the KBP in the request's engine; print it,
    its solutions ({!Kpt_core.Kbp.solutions}) and its chaotic iteration,
    each under [options.limits].  Exhaustion, or a knowledge KBP past
    the candidate cap, degrades to one line and code 3. *)

val solve : ?sink:sink -> options -> (string * string) list -> outcome
(** [kpt solve-file] on the first source: the (optionally sliced) KBP,
    rendered as by {!solve_model}. *)

val slice : ?sink:sink -> options -> (string * string) list -> outcome
(** [kpt slice] on the first source, with respect to [options.wrt]. *)

val verify :
  ?sink:sink ->
  options ->
  file:string ->
  src:string ->
  invariants:string list ->
  stables:string list ->
  leadstos:string list ->
  outcome
(** [kpt verify]: [invariant P], [stable P] and [P ↦ Q] (given as
    ["P ; Q"]) on the spec's program (a KBP's at its strongest
    solution), sliced to the properties under [options.slice], under
    [options.limits].  Exit 1 when one fails or does not compile. *)

val matrix : ?sink:sink -> options -> faults:Kpt_fault.Model.t list -> outcome
(** [kpt matrix]: {!Resilience.run} over the [faults] columns (all of
    {!Kpt_fault.Matrix.default_faults} when empty) under
    [options.limits] per cell, as text or, under [options.json], the
    JSON the CI golden pins.  Exit 1 when a cell errored, else 3 when
    one was exhausted. *)

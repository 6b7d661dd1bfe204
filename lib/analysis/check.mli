(** The batch driver behind [kpt check FILE...]: lint + elaborate +
    solve + stats for every file of a corpus, in parallel, with one
    summary line per file.

    {b Determinism.}  Output (text and JSON) is a function of the input
    files alone: reports are computed on worker domains but rendered on
    the calling domain in input order, each task runs under a fresh
    {!Kpt_predicate.Engine.t} (so even counter snapshots are
    pool-size-independent), and nothing the renderer prints depends on
    [jobs].  [kpt check -j 4] is byte-identical to [-j 1].

    {b Isolation.}  A file that fails to lex, parse or elaborate — or
    whose solver raises — yields a failing report of its own; its
    siblings are computed and rendered normally. *)

type report = {
  file : string;
  diags : Diagnostic.t list;
      (** lint findings, including syntax/elaboration errors *)
  stats : Stats.t option;  (** [None] when the file does not elaborate *)
}

val check_source : ?slice:bool -> file:string -> string -> report
(** Check one file's content: load it once ({!Diagnostic.load}), lint
    the AST ({!Lint.lint_loaded}, so [diags] equal {!Lint.lint_source}'s)
    and — if it elaborates — run the {!Stats.collect} solving workload on
    the spec.  [~slice:true] reduces the protocol to its cone of
    influence ({!Slice.kbp}, conservative seed) before solving; the
    verdict is preserved.  Exceptions out of the solver (a spec error
    only it can see, budget exhaustion) propagate; the batch driver maps
    them with {!Diagnostic.of_exn}. *)

val failed : report -> bool
(** Whether the report carries at least one error-severity finding. *)

val reports :
  ?jobs:int ->
  ?budget:Kpt_predicate.Budget.limits ->
  ?slice:bool ->
  (string * string) list ->
  report list
(** [(file, source)] pairs in, reports out, index-aligned.  [jobs]
    defaults to {!Kpt_par.recommended_jobs}.  [budget] is armed afresh
    per file ({!Kpt_par.try_map}'s [task_budget]); a file that exhausts
    it degrades to a [KPT041] error report instead of hanging the
    batch. *)

val render_text : Format.formatter -> report list -> unit

val to_json : report list -> Json.t
(** The [kpt check --json] document: {!Lint.to_json} with each file's
    [stats] member. *)

val run_sources :
  ?jobs:int ->
  ?budget:Kpt_predicate.Budget.limits ->
  ?slice:bool ->
  ?warn_error:bool ->
  ?quiet:bool ->
  ?json:bool ->
  Format.formatter ->
  (string * string) list ->
  int
(** Check, render (unless [quiet]), and compute the exit code with
    {!Lint.run_sources} semantics: [1] iff any error (or any warning
    under [warn_error]); the empty corpus is a no-op success.  A file
    whose per-task [budget] ran out ([KPT041]) upgrades the exit code to
    [3] — the CLI's documented resource-exhaustion code. *)

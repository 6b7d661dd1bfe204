(** The static-analysis passes behind [kpt lint].

    Everything here is purely syntactic / structural — no BDD is ever
    built — so the checks run (and the paper's Figure 1-2 pathologies are
    predicted) before any fixpoint search is attempted:

    - {e read/write sets} (see {!Rw}) feed every other pass;
    - {e knowledge locality} (eq. 13): a guard attributed to process [i]
      must depend only on [vars_i] outside its [K_i] operators — anything
      else is unimplementable;
    - {e K-polarity} (eq. 25, Figures 1-2): a knowledge operator in
      negative position, or knowledge {e of} a negated fact, can make
      [SI = strongest x : [ŜP.x ⇒ x]] unsolvable or non-monotonic in
      [init];
    - {e vacuity / hygiene}: unused and write-only variables, identity
      assignments, duplicate statements, constant guards, [nat(k)]
      comparisons against out-of-range constants;
    - {e interference}: a variable written on behalf of two different
      processes, or written by a process that cannot access it.

    The passes work on the parsed {!Kpt_syntax.Ast.program}, so every
    finding carries a source span.  Protocols built through the OCaml
    API have no source; {!Semantic.analyse_program} checks those. *)

open Kpt_syntax

val lint_ast : ?file:string -> Ast.program -> Diagnostic.t list
(** All passes over a parsed program, sorted in document order. *)

val lint_loaded :
  ?file:string ->
  Ast.program option * (Kpt_predicate.Space.t * Kpt_core.Kbp.t, Diagnostic.t) result ->
  Diagnostic.t list
(** The lint findings of an already loaded source ({!Diagnostic.load}'s
    result): {!lint_ast} over the AST when there is one, plus the load's
    diagnostic when it failed, sorted in document order. *)

val lint_source : ?file:string -> string -> Diagnostic.t list
(** {!lint_loaded} on {!Diagnostic.load}: lexical / syntax errors
    surface as [KPT001]/[KPT002] diagnostics, elaboration errors as
    [KPT003], and a program that parses gets the full {!lint_ast}
    treatment.  Never raises. *)

val lint_source_semantic :
  ?budget:Kpt_predicate.Budget.limits -> file:string -> string -> Diagnostic.t list
(** {!lint_source} plus the semantic tier, on the same single load:
    {!Semantic.analyse} runs on the elaborated spec (KPT1xx findings,
    budgeted).  An unsatisfiable initial condition — which elaboration
    rejects, so {!Semantic} never sees it — turns the load's [KPT003]
    into [KPT103].  Never raises: a spec error the solver finds (a
    non-total assignment, say) is a [KPT003] diagnostic too. *)

val to_json : ?stats:Stats.t option list -> (string * Diagnostic.t list) list -> Json.t
(** The document of both [kpt lint --json] and [kpt check --json]:
    [files]/[errors]/[warnings]/[infos] totals, then [reports] with
    [file]/[status]/[findings]/[diagnostics] per file.  With [~stats]
    (index-aligned with the reports) each report also gets a [stats]
    member: {!Stats.to_json} without timings, or [null] for a file that
    did not elaborate.  [kpt lint] passes no stats and the member is
    absent. *)

val run_sources :
  ?jobs:int ->
  ?semantic:bool ->
  ?budget:Kpt_predicate.Budget.limits ->
  ?json:bool ->
  ?warn_error:bool ->
  ?quiet:bool ->
  Format.formatter ->
  (string * string) list ->
  int
(** [run_sources ppf [(file, contents); …]] is the driver behind
    [kpt lint]: lint every source, render diagnostics (with excerpts)
    and a summary to [ppf], and return the process exit code.  Files are
    linted on a [jobs]-wide pool (default {!Kpt_par.recommended_jobs})
    but rendered in input order, so the output does not depend on the
    pool size.  [~semantic:true] adds the budgeted KPT1xx tier
    ({!lint_source_semantic}; [budget] defaults to
    {!Kpt_predicate.Budget.analysis_default}); [~json:true] prints
    {!to_json} with {!Json.to_pretty} instead of text.  [~quiet:true]
    suppresses {e all} rendering but {e never} alters the exit code,
    which depends only on the findings: 1 iff any error, or any warning
    when [~warn_error:true]. *)

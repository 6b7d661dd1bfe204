(** Structured lint findings.

    Every static-analysis pass reports [t] values: a stable [KPT0xx] code,
    a severity, an optional source position (file + {!Kpt_syntax.Loc.span})
    and a message, with an optional fix hint.  The CLI renders them as
    [file:line:col: severity[KPTnnn]: message] followed by a source
    excerpt with a caret; the exit-code policy lives in {!exit_code}.

    The code space (catalogued with paper provenance in DESIGN.md):
    - [KPT001]-[KPT003]: lexical / syntax / elaboration errors;
    - [KPT01x]: knowledge checks (eq. 13 locality, eq. 25 / Figures 1-2
      polarity);
    - [KPT02x]: vacuity and hygiene;
    - [KPT03x]: interference. *)

open Kpt_syntax

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable "KPTnnn" identifier *)
  severity : severity;
  file : string option;
  span : Loc.span option;
  message : string;
  hint : string option;  (** an optional "fix: …" suggestion *)
}

val error : ?file:string -> ?span:Loc.span -> ?hint:string -> code:string -> string -> t
val warning : ?file:string -> ?span:Loc.span -> ?hint:string -> code:string -> string -> t
val info : ?file:string -> ?span:Loc.span -> ?hint:string -> code:string -> string -> t

val with_file : string -> t -> t
(** Attach a file name (kept if already present). *)

val severity_label : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val compare : t -> t -> int
(** Document order: by position, then severity (errors first), then code. *)

val is_error : t -> bool

val of_exn : ?file:string -> exn -> t option
(** The one mapping from exceptions to diagnostics:
    {!Token.Lex_error} / {!Parser.Parse_error} / {!Elaborate.Elab_error}
    to [KPT001]/[KPT002]/[KPT003] at their span;
    {!Kpt_unity.Program.Ill_formed} / {!Kpt_core.Kbp.Ill_formed} — a
    spec that elaborates but that the solver rejects, such as a
    non-total assignment — to [KPT003] with the plain message; and
    {!Kpt_predicate.Budget.Exhausted} to [KPT041].  [None] for any other
    exception, which is a bug rather than a property of the input. *)

val load :
  ?file:string ->
  string ->
  Ast.program option * (Kpt_predicate.Space.t * Kpt_core.Kbp.t, t) result
(** Parse and elaborate a source, once: the front end's single entry
    point, shared by every command that reads a [.unity] file.  The AST
    is [Some] whenever the source parses (the syntactic lint passes need
    it even when elaboration fails); the result carries the elaborated
    spec or the one [KPT001]/[KPT002]/[KPT003] diagnostic saying why
    there is none.  Never raises on any input; only an armed budget's
    {!Kpt_predicate.Budget.Exhausted} may escape. *)

val pp : Format.formatter -> t -> unit
(** One line: [file:line:col: severity[KPTnnn]: message]. *)

val pp_excerpt : src:string -> Format.formatter -> t -> unit
(** {!pp}, followed by the offending source line with a caret under the
    span's column and the hint (if any). *)

val summary : t list -> string
(** ["2 errors, 1 warning"] — empty string for no findings. *)

val exit_code : ?warn_error:bool -> t list -> int
(** [3] if a budget ran out ([KPT041], the CLI's resource code); else
    [1] if any error (or, with [~warn_error:true], any warning) is
    present; [0] otherwise.  Infos never affect the exit code. *)

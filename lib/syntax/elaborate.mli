(** Elaboration: surface {!Ast.program} → a state space plus a
    knowledge-based program ({!Kpt_core.Kbp.t}).

    A program with no knowledge operators elaborates to a KBP that
    {!Kpt_core.Kbp.is_standard} accepts; use
    {!Kpt_core.Kbp.to_standard_program} to obtain the plain UNITY
    program.

    Name resolution: identifiers denote program variables first; an
    unresolved identifier is looked up among enum literals (which must be
    globally unique across enum types).  [init] and assignment right-hand
    sides must be knowledge-free; guards may use [K[p](…)], [E], [C],
    [D]. *)

open Kpt_predicate
open Kpt_core

exception Elab_error of Loc.span option * string
(** Source position of the offending construct when one is known (errors
    raised while validating the assembled program have none) and a
    message without the position — callers prepend [file:line:col]. *)

val program : Ast.program -> Space.t * Kbp.t
(** @raise Elab_error on unknown identifiers, sort errors, duplicate
    declarations (at the later one), arity mismatches, or knowledge
    operators outside guards.  Nothing else escapes, bar
    {!Kpt_predicate.Budget.Exhausted} under an armed node budget. *)

val expr : Space.t -> Ast.expr -> Kpt_unity.Expr.t
(** Elaborate a knowledge-free expression against an existing space
    (enum literals resolved against its variables). *)

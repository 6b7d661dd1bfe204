(** Read/write-set analysis — the shared substrate of the lint passes and
    a reusable cone-of-influence computation.

    Two granularities mirror the two program representations:
    - {e surface}: sets of variable {e base names} over the [.unity] AST
      (an array access [a[e]] reads and writes the base [a]);
    - {e semantic}: {!Kpt_predicate.Space.var} sets over compiled
      {!Kpt_unity.Stmt.t} statements.

    Guard reads are split into the part {e outside} knowledge operators
    (which eq. 13 requires to be local to the acting process) and the
    part {e inside} each [K]/[E]/[C]/[D] (which may mention anything —
    that is the point of knowledge). *)

open Kpt_syntax
open Kpt_predicate
open Kpt_unity

module S : Set.S with type elt = string

(** A knowledge operator occurring in a guard. *)
type kop = {
  agents : string list;  (** [K[p]] has one agent; groups have several *)
  kspan : Loc.span;  (** position of the [K]/[E]/[C]/[D] letter *)
  kreads : S.t;  (** variables read inside the operator *)
  negated_reads : S.t;
      (** variables occurring under negative (or mixed) polarity {e inside}
          the operator body — knowledge of negated facts, the Figure 1-2
          trigger *)
  negative_position : bool;
      (** the operator itself sits under negative (or mixed) polarity
          within the guard *)
}

type stmt_rw = {
  writes : S.t;  (** assignment-target base names *)
  rhs_reads : S.t;  (** right-hand sides, including target indices *)
  guard_plain : S.t;  (** guard reads outside every knowledge operator *)
  kops : kop list;  (** knowledge operators of the guard, in source order *)
}

val reads : vars:S.t -> Ast.expr -> S.t
(** Variables of [vars] read by an expression (identifiers outside [vars]
    — enum literals, unknowns — are ignored). *)

val of_stmt : vars:S.t -> Ast.stmt -> stmt_rw

val all_reads : stmt_rw -> S.t
(** [rhs_reads ∪ guard_plain ∪ every operator's kreads]. *)

(** {1 Semantic granularity} *)

module V : Set.S with type elt = int
(** Sets of variables by {!Space.idx}. *)

val of_vars : Space.var list -> V.t

val stmt_writes : Stmt.t -> V.t

val stmt_reads : Space.t -> Stmt.t -> V.t
(** Guard and right-hand-side reads.  Pre-compiled guard predicates
    ({!Stmt.Gpred}) contribute their BDD support. *)

val program_cone : Program.t -> V.t -> V.t
(** [program_cone prog targets]: least set [C ⊇ targets] such that
    whenever a statement's write set meets [C], its read set is included
    — the variables that can influence [targets] through any statement
    chain (cone of influence). *)

val kform_reads : Kpt_core.Kform.t -> V.t
(** Every variable a knowledge guard reads, operator bodies included. *)

val kstmt_writes : Kpt_core.Kbp.kstmt -> V.t
val kstmt_reads : Kpt_core.Kbp.kstmt -> V.t

val kbp_cone : Kpt_core.Kbp.t -> V.t -> V.t
(** Cone of influence over a knowledge-based protocol's statements, at
    the same write-meets-cone-pulls-in-reads closure as
    {!program_cone}. *)

val var_of_idx : Space.t -> int -> Space.var
(** Inverse of {!Space.idx} (by scan; spaces are small). *)

val vars_of_support : Space.t -> int list -> V.t
(** Map a BDD support (a set of bit indices) back to the program
    variables owning those bits. *)

(** The resilience matrix: re-verify a protocol's properties under each
    fault model and report which property survives which fault (the
    paper predicts, e.g., that transmit survives loss + duplication +
    ⊥-corruption — its §6.3 channel — while undetectable value
    corruption breaks the knowledge discharge obligations).

    Subjects are closures so this module needs no knowledge of the
    protocol builders; [Kpt_analysis.Resilience] supplies the bundled
    ones. *)

open Kpt_predicate

type verdict =
  | Holds
  | Fails
  | Exhausted of Budget.reason
      (** the per-cell budget ran out before a verdict *)
  | Error of string
      (** the builder or checker rejected this fault model *)

type property = { prop : string; check : unit -> bool }

type subject = {
  subject : string;
  build : Model.t -> property list;
      (** build the protocol under the given fault model and return its
          properties, each as a thunk run under the per-cell budget *)
}

type cell = { subject : string; fault : string; prop : string; verdict : verdict }

type t = { faults : string list; cells : cell list }

val default_faults : (string * Model.t) list
(** [perfect], [lossy], [value-corrupt], [crash] — the named models
    minus [duplicating] (indistinguishable from [lossy] for every
    bundled subject, which tolerates duplication by construction). *)

val run :
  ?budget:Budget.limits -> ?faults:(string * Model.t) list -> subject list -> t
(** Evaluate every subject × fault × property cell.  Each property check
    runs under a freshly armed [budget] on the current engine, so one
    pathological cell degrades to [Exhausted] while the rest complete. *)

val subjects : t -> string list
val props_of : t -> string -> string list
val find : t -> subject:string -> fault:string -> prop:string -> cell option

val broken_by : t -> subject:string -> fault:string -> baseline:string -> string list
(** Properties that hold under [baseline] but fail under [fault]. *)

val verdict_to_string : verdict -> string
(** [holds], [breaks], [exhausted:REASON] or [error]. *)

val pp : Format.formatter -> t -> unit
(** One table per subject: property rows × fault columns. *)

val to_json : t -> Json.t
(** Deterministic machine-readable form, the [kpt matrix --json]
    document — what the CI golden pins. *)

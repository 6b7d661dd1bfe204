(** Environment-statement synthesis: what a {!Model.t} lets the
    environment do to one channel direction, as UNITY statements in the
    §6.3 shape.  [Channel.env] in [kpt_protocols] is the high-level
    wrapper; this low-level entry point exists for channels that are not
    a [Channel.t] (e.g. the sliding-window builder's per-cell arrays). *)

open Kpt_predicate
open Kpt_unity

type channel_env = {
  statements : Stmt.t list;
      (** [env_dlv_NAME], then ([env_drop_NAME]), ([env_corr_NAME]),
          ([env_crash_NAME]) as the model demands.  For {!Model.lossy}
          and {!Model.duplicating} this is byte-identical to the
          historical hard-wired deliver/drop statements. *)
  init : Expr.t list;
      (** extra init conjuncts (the crash flag starts up) *)
  up : Space.var option;
      (** the crash flag, when this call declared one — pass it back in
          as [?up] to make several channel directions crash together *)
}

val env :
  Space.t ->
  slot:Space.var ->
  avail:Space.var ->
  bot:int ->
  ?up:Space.var ->
  name:string ->
  Model.t ->
  channel_env
(** [env sp ~slot ~avail ~bot ~name m] synthesises [m]'s environment
    statements for the channel direction [(slot, avail)] whose ⊥ encodes
    as [bot].  With [?up], a crash model guards delivery on the given
    flag instead of declaring (and crashing) its own [NAME_up].  An
    undetectable corruption writes the valid-looking value 0. *)

val crash_stmt : name:string -> Space.var -> Stmt.t
(** [env_crash_NAME : up := false] — for builders that share one crash
    flag across several channel directions (declare the flag, pass it to
    every {!env} call as [?up], and emit this statement once). *)

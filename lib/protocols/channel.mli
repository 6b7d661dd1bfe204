(** Faulty communication channels as UNITY environment statements (§5:
    "Message communication can be modeled by sequence variables…"; §6.3:
    the channel "allows loss, duplication, and detectable corruption of
    messages").

    A channel direction consists of:
    - a {e slot}: the message most recently transmitted (what is in
      flight), written by the protocol's [transmit];
    - an {e avail} register: what a [receive] would return right now,
      written by the {e environment}'s two statements —
      {e deliver} ([avail := slot]; repeatable, hence {b duplication})
      and {e drop} ([avail := ⊥]; {b loss}, or {b corruption} received
      detectably as ⊥, per §6.2's [receive]).

    The protocol's own register ([z] / [z'] in Figure 4) is declared by
    the protocol and updated by embedding {!receive} ([reg := avail])
    inside its statements — exactly the paper's
    [… ∥ receive(z')] composition.  This placement is load-bearing: the
    stability properties (eqs. 55–56) hold only because a process
    overwrites its register exclusively in its own guarded statements.

    Values are bounded naturals with a distinguished top value for ⊥;
    {!codec} centralises the encoding.  The capacity-1 slot gives the
    paper's history properties St-1/St-2 (anything received was sent)
    by construction. *)

open Kpt_predicate
open Kpt_unity

type codec = {
  card : int;  (** total encoded values, including ⊥ *)
  bot : int;  (** the encoding of ⊥ (= card - 1) *)
  weights : int list;  (** positional weight of each message component *)
  enc : int list -> int;  (** encode message components *)
  dec : int -> int list;  (** decode (undefined on ⊥) *)
}

val nat_codec : max:int -> codec
(** Messages are naturals [0..max] plus ⊥ (the paper's ack channel). *)

val pair_codec : n:int -> a:int -> codec
(** Messages are pairs [(k, α)] with [k < n], [α < a], plus ⊥ (the data
    channel carrying [(index, value)]). *)

type t = {
  codec : codec;
  slot : Space.var;  (** message in flight *)
  avail : Space.var;  (** what receive would return now *)
}

val declare : Space.t -> name:string -> codec -> t
(** Declare [name_slot] and [name_avail]. *)

val register : Space.t -> name:string -> codec -> Space.var
(** Declare a protocol-owned receive register of the right range. *)

val transmit : t -> Expr.t list -> Space.var * Expr.t
(** Assignment performing [transmit(msg)]: overwrite the slot.  The
    encoding is linear in the codec's weights. *)

val receive : t -> Space.var -> Space.var * Expr.t
(** Assignment performing [receive(reg)]: [reg := avail].  Embed in the
    protocol statement alongside its other assignments. *)

val deliver_stmt : t -> name:string -> Stmt.t
(** Environment: [avail := slot]. *)

val drop_stmt : t -> name:string -> Stmt.t
(** Environment: [avail := ⊥]. *)

val init_expr : t -> Expr.t
(** [slot = ⊥ ∧ avail = ⊥]. *)

val mul_const : int -> Expr.t -> Expr.t
(** [c · e] by repeated addition — for building message predicates that
    must agree with a codec's linear encoding. *)

val env :
  Space.t ->
  ?up:Space.var ->
  t ->
  name:string ->
  Kpt_fault.Model.t ->
  Kpt_fault.Inject.channel_env
(** The environment statements a fault model grants over this channel —
    {!Kpt_fault.Inject.env} on the channel's slot/avail/⊥.  For
    {!Kpt_fault.Model.lossy} this is exactly the historical
    [deliver_stmt] + [drop_stmt] pair (names [env_dlv_NAME] /
    [env_drop_NAME]). *)

val network : Space.t -> Kpt_fault.Model.t -> (string * t) list -> Stmt.t list * Expr.t list
(** The environment of a whole network: {!env} of every named direction
    in order, sharing one [net_up] crash flag when [model] crashes
    (declared here; its [env_crash_net] statement comes last), and the
    extra init conjuncts ([net_up], or none). *)

val resolve_fault : lossy:bool -> Kpt_fault.Model.t option -> Kpt_fault.Model.t
(** The builders' shared parameter resolution: an explicit [?fault]
    wins; otherwise [~lossy] selects {!Kpt_fault.Model.lossy} or
    {!Kpt_fault.Model.duplicating} (the two historical channels). *)

val fault_suffix : Kpt_fault.Model.t -> string
(** Program-name suffix for a fault model; the historical models keep
    their historical spellings (["_lossy"] and [""]). *)

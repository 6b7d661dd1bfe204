(** The built-in §6 protocols, read by [kpt check <protocol>], the
    resilience matrix and the section-6 tests.  An entry builds a fresh
    {!instance}: the program plus the variables (34)–(35) read. *)

open Kpt_predicate
open Kpt_unity

type instance = {
  prog : Program.t;
  j : Space.var;  (** the receiver index [|w|] *)
  ws : Space.var array;  (** the delivered sequence *)
  xs : Space.var array;  (** the sequence to send *)
}

type build =
  | On_channel of (Kpt_fault.Model.t -> Seqtrans.params -> instance)
      (** over a channel with the given fault model *)
  | No_channel of (Seqtrans.params -> instance)
      (** the channel is Figure 3's oracles, or synchronous (AUY) *)

type t = {
  name : string;  (** the [kpt check] argument *)
  label : string;  (** the name in the [checking …] header *)
  build : build;
  params_error : Seqtrans.params -> string option;
      (** the constraint on [n], [a] that [build] would reject, if any *)
}

val all : t list
(** standard (Fig. 4), kbp (Fig. 3), abp, stenning, auy, window (w = 2). *)

val find : string -> t option

val safety : instance -> Bdd.t
(** {!Seqtrans.safety} (34) of the instance. *)

val liveness_holds : instance -> k:int -> bool
(** {!Seqtrans.liveness_holds} (35) of the instance at [k]. *)

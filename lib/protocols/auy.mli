(** The Aho–Ullman–Yannakakis model [AUY79, AUWY82]: the sender and
    receiver communicate {e synchronously} over a channel that allows
    only {e one-bit} messages.

    We realise the smallest member of the family: a half-duplex
    alternating exchange in which the sender emits the bits of the
    current element (alphabet size must be a power of two so elements
    are bit strings), the receiver assembles them, and an implicit
    synchronous ack (the turn change) replaces sequence numbers — no
    loss, no duplication, so sequence numbers are unnecessary, which is
    exactly the AUY observation that synchrony buys protocol economy. *)

open Kpt_predicate
open Kpt_unity

type t = {
  prog : Program.t;
  space : Space.t;
  params : Seqtrans.params;
  bits_per_element : int;
  xs : Space.var array;
  ws : Space.var array;
  i : Space.var;   (** sender's element index *)
  j : Space.var;   (** receiver's element index *)
  bit : Space.var; (** bit position within the current element *)
  wire : Space.var;  (** the one-bit synchronous channel *)
  turn : Space.var;  (** 0 = sender may write the wire, 1 = receiver may read *)
  acc : Space.var;   (** receiver's partial element *)
}

val params_error : Seqtrans.params -> string option
(** The constraint the parameters break, if any: {!Seqtrans.params_error},
    and an alphabet size that is a power of two. *)

val make : Seqtrans.params -> t
(** @raise Invalid_argument on a {!params_error}. *)

val safety : t -> Bdd.t
(** Eq. 34 for the AUY instance. *)

val liveness_holds : t -> k:int -> bool
(** Eq. 35 instance; holds unconditionally (the channel is synchronous
    and reliable). *)

val messages_per_element : t -> int
(** Bits on the wire per delivered element — [log2 a], the AUY economy
    measure. *)

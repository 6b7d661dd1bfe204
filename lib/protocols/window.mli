(** A selective-repeat sliding-window protocol — the natural
    generalisation of the §6 family ([HZar] refines the infinite-state
    standard protocol into "several interesting finite state protocols";
    a window of size 1 degenerates to Stenning-style stop-and-wait).

    The network holds at most one copy of each element: a per-index
    capacity-1 channel (slot + avail, values in [A ∪ ⊥]).  The sender may
    (re)transmit any of the [w] lowest unacknowledged elements — that is
    the window — and slides on cumulative acks [j]; the receiver delivers
    in order and acknowledges cumulatively, exactly like Figure 4.

    Same specification, same knowledge content (the cumulative ack [z]
    is the [K_S(j ≥ k)] witness), more concurrency in flight. *)

open Kpt_predicate
open Kpt_unity

type t = {
  prog : Program.t;
  space : Space.t;
  params : Seqtrans.params;
  window : int;
  xs : Space.var array;
  ws : Space.var array;
  i : Space.var;  (** lowest unacknowledged index, [0..n] *)
  j : Space.var;  (** receiver's index, [0..n] *)
  z : Space.var;  (** sender's cumulative-ack register *)
  slots : Space.var array;   (** in-flight copy of element k ([a] = ⊥) *)
  avails : Space.var array;  (** deliverable copy of element k *)
  ack : Channel.t;
}

val make :
  ?lossy:bool -> ?fault:Kpt_fault.Model.t -> window:int -> Seqtrans.params -> t
(** @raise Invalid_argument unless [1 ≤ window]. *)

val safety : t -> Bdd.t
(** Eq. 34. *)

val liveness_holds : t -> k:int -> bool
(** Eq. 35 instance under fair leads-to. *)

val in_flight : t -> Space.state -> int
(** Number of elements currently on the network — bounded by the window
    in every reachable state (the window invariant, tested). *)

val simulate_steps : ?seed:int -> t -> int
(** Scheduler steps of a random-fair run until everything is delivered
    (1_000_000 = did not finish) — the windowed-pipelining measurement
    of E9. *)

(** Parametric ring protocols of any size.

    Two families, both generated directly against the library API (no
    surface syntax) so that any size can be instantiated:

    - {!token_ring}: the classic n-station mutual-exclusion ring.  One
      token circulates; a station may only work while it holds the token
      and must release it onward.  The reachable state space is exactly
      [2n] states out of [n·2ⁿ], so the family exercises the [sst]
      frontier loop at growing variable counts while every predicate
      stays small.

    - {!mirror}: an adversarially-declared stress instance for dynamic
      variable reordering.  [n] pairs of [width]-bit counters advance in
      lock-step pair-wise, so the reachable set is the agreement
      predicate [⋀ i :: lᵢ = rᵢ] — [2{^width·n}] states whose BDD is
      {e exponential} in the declaration order (all lefts before all
      rights) but linear once the pairs are interleaved.  With
      reordering off the [sst] fixpoint exhausts any reasonable node
      budget already at moderate [n]; with sifting on it converges to
      the interleaved order and completes easily — the contrast pinned
      by the acceptance tests. *)

open Kpt_predicate
open Kpt_unity

(** {1 Token ring} *)

type ring = {
  rprog : Program.t;
  rspace : Space.t;
  token : Space.var;  (** index of the station holding the token *)
  busy : Space.var array;  (** [busy.(k)]: station [k] is in its critical section *)
}

val token_ring : n:int -> ring
(** Build the [n]-station ring ([n ≥ 2]).  Initially station 0 holds the
    token and nobody is busy. *)

val monitored : n:int -> ring
(** The [n]-station ring plus a write-only audit monitor: each station
    bumps a shared saturating [log : nat(2n-1)] counter while busy, and
    nothing reads [log] back.  Any property over [token]/[busy] therefore
    has a cone of influence excluding the monitors and the log bits —
    the slicing vehicle for the tests (the plain {!token_ring}
    is fully connected, so slicing it is the identity). *)

val mutex_ok : ring -> Bdd.t
(** Safety: no two stations busy simultaneously.  An invariant of the
    ring (checked by the test suite). *)

val holder_busy : ring -> Bdd.t
(** The token holder is busy — holds on exactly [n] of the [2n]
    reachable states. *)

(** {1 Mirrored counters} *)

type mirror = {
  mprog : Program.t;
  mspace : Space.t;
  left : Space.var array;
  right : Space.var array;
}

val mirror : n:int -> width:int -> mirror
(** Build the [n]-pair mirrored-counter program over [width]-bit
    counters ([n ≥ 2], [width ≥ 1]), with the adversarial declaration
    order described above. *)

val agreement : mirror -> Bdd.t
(** [⋀ i :: lᵢ = rᵢ] — the reachable set of {!mirror}, and the
    order-sensitive predicate the reordering acceptance test pivots
    on. *)

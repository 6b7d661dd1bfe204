(** Branching-time operators over UNITY programs.

    UNITY's own specification language ([unless]/[ensures]/[↦]) is
    deliberately linear-time, but its semantic ingredients — [wp]
    pre-images, reachability, the fair-rounds fixpoint — assemble into
    the standard CTL modalities, which the test-suite uses as an
    independent oracle for the §2/§5 machinery:

    - [ef q]: states with {e some} finite execution into [q]
      (least fixpoint of [q ∨ EX], with [EX] = {!Program.pre});
    - [ag q]: states all of whose reachable successors satisfy [q]
      ([¬ef ¬q]);
    - [eg_fair q]: states with some {e fair} execution staying in [q]
      forever (the {!Props.fair_avoid} gfp, re-oriented);
    - [af_fair q]: states whose every fair execution reaches [q]
      ([¬eg_fair ¬q] — {!Props.wlt} without the reachability cut).

    The correspondences [invariant p ⟺ [init ⇒ ag p]] and
    [p ↦ q ⟺ [SI ∧ p ⇒ af_fair q]] are exercised in the tests.

    All operators quantify over type-correct states and are exact on the
    finite instances this library targets. *)

open Kpt_predicate
open Kpt_unity

val ef : Program.t -> Bdd.t -> Bdd.t
(** Possibly-eventually. *)

val ag : Program.t -> Bdd.t -> Bdd.t
(** Always-globally (along every execution). *)

val eg_fair : Program.t -> Bdd.t -> Bdd.t
(** Exists a fair execution remaining in [q]; computed within the
    reachable states (elsewhere false). *)

val af_fair : Program.t -> Bdd.t -> Bdd.t
(** All fair executions reach [q]; computed within the reachable states
    (elsewhere false). *)

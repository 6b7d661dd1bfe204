(** Explicit-state reachability and run-based (Halpern–Moses style)
    knowledge.

    §3 argues that the predicate-transformer [K_i] coincides with the
    view-based definition of [HM90] when the view is the projection of
    the current global state onto the process's variables and the
    possible points are the reachable states.  This module computes that
    run-based knowledge {e directly} — enumerate reachable states by
    explicit BFS, group them by view, quantify over each group — so the
    test suite can confirm the two definitions agree, validating the BDD
    layer against the operational semantics. *)

open Kpt_predicate
open Kpt_unity

val reachable : Program.t -> Space.state list
(** Explicit breadth-first closure of the initial states under all
    statements ({!Kpt_unity.Stmt.exec}), in no particular order.  The
    visited set is keyed by the state arrays themselves, so it cannot
    alias states at any space size.  This is the independent oracle the
    symbolic [SI] is checked against: nothing here goes through
    [Program.sst]. *)

val si_agrees : Program.t -> bool
(** Does the explicit reachable set coincide with the symbolic [SI]? *)

val view_knows :
  ?worlds:Space.state list ->
  Program.t -> Process.t -> (Space.state -> bool) -> Space.state -> bool
(** [view_knows prog i p st]: at reachable state [st], does process [i]
    know [p] in the run-based sense — i.e. does [p] hold at {e every}
    reachable state with the same projection onto [i]'s variables?
    Pass [worlds] (the precomputed reachable set) when calling in a loop;
    otherwise it is recomputed. *)

val knowledge_agrees : Program.t -> string -> Bdd.t -> bool
(** Compare {!Kpt_core.Knowledge.knows_in} with {!view_knows} on every
    reachable state. *)

(* The explicit closure [Kbp.universe] is checked against: a breadth-first
   search from the initial states under every unguarded statement body,
   run by [Stmt.exec].  A body that drives a variable out of range at a
   state contributes no transition there.  The visited set is keyed by
   the state arrays themselves, so no state code can alias, and nothing
   here goes through [Program.sst] or the symbolic state walk. *)

open Kpt_predicate
open Kpt_unity
open Kpt_core

let universe k =
  let sp = Kbp.space k in
  let bodies =
    List.map (fun s -> Stmt.make ~name:s.Kbp.kname s.Kbp.kassigns) (Kbp.kstmts k)
  in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push st =
    if not (Hashtbl.mem seen st) then begin
      let copy = Array.copy st in
      Hashtbl.add seen copy ();
      Queue.add copy queue
    end
  in
  List.iter push (Helpers.states_by_filter sp (Kbp.init k));
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    List.iter
      (fun s -> match Stmt.exec sp s st with st' -> push st' | exception Stmt.Ill_formed _ -> ())
      bodies
  done;
  Hashtbl.fold (fun st () acc -> st :: acc) seen []

(* Does the symbolic universe hold exactly the oracle's states? *)
let agrees k =
  let sp = Kbp.space k in
  let symbolic = Kbp.universe k in
  let explicit = universe k in
  List.length explicit = Space.count_states_of sp symbolic
  && List.for_all (Space.holds_at sp symbolic) explicit

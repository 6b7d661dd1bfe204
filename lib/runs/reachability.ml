open Kpt_predicate
open Kpt_unity

let reachable prog =
  let space = Program.space prog in
  (* keyed by the state array itself: structural hash and equality *)
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let push st =
    if not (Hashtbl.mem seen st) then begin
      (* one copy, shared by the table and the queue — neither mutates it *)
      let copy = Array.copy st in
      Hashtbl.add seen copy ();
      Queue.add copy queue
    end
  in
  List.iter push (Space.states_of space (Program.init prog));
  let stmts = Program.statements prog in
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    List.iter (fun s -> push (Stmt.exec space s st)) stmts
  done;
  Hashtbl.fold (fun st () acc -> st :: acc) seen []

let si_agrees prog =
  let space = Program.space prog in
  let si = Program.si prog in
  let explicit = reachable prog in
  List.length explicit = Space.count_states_of space si
  && List.for_all (Space.holds_at space si) explicit

let projection proc st =
  List.map (fun v -> st.(Space.idx v)) (Process.vars proc)

let view_knows ?worlds prog proc p st =
  let worlds = match worlds with Some w -> w | None -> reachable prog in
  let view = projection proc st in
  List.for_all (fun w -> if projection proc w = view then p w else true) worlds

let knowledge_agrees prog pname p =
  let space = Program.space prog in
  let proc = Program.find_process prog pname in
  let symbolic = Kpt_core.Knowledge.knows_in prog pname p in
  let worlds = reachable prog in
  (* group worlds by view so the check is O(R log R) rather than O(R²) *)
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun w ->
      let v = projection proc w in
      let holds = Space.holds_at space p w in
      let all = match Hashtbl.find_opt tbl v with Some b -> b | None -> true in
      Hashtbl.replace tbl v (all && holds))
    worlds;
  List.for_all
    (fun st ->
      let concrete = Hashtbl.find tbl (projection proc st) in
      Space.holds_at space symbolic st = concrete)
    worlds

open Kpt_predicate
open Kpt_unity

type point = { states : Space.state array (* oldest first *) }

type system = { prog : Program.t; pts : point list }

let current_state pt = pt.states.(Array.length pt.states - 1)
let time pt = Array.length pt.states - 1

let encode_prefix states =
  let buf = Buffer.create 64 in
  Array.iter
    (fun st ->
      Array.iter (fun v -> Buffer.add_string buf (string_of_int v); Buffer.add_char buf ',') st;
      Buffer.add_char buf ';')
    states;
  Buffer.contents buf

let build ?(depth = 6) prog =
  let space = Program.space prog in
  let stmts = Program.statements prog in
  let seen = Hashtbl.create 4096 in
  let acc = ref [] in
  let add pt =
    let key = encode_prefix pt.states in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      acc := pt :: !acc;
      true
    end
    else false
  in
  let frontier = ref [] in
  List.iter
    (fun st ->
      let pt = { states = [| Array.copy st |] } in
      if add pt then frontier := pt :: !frontier)
    (Space.states_of space (Program.init prog));
  for _ = 1 to depth do
    let next = ref [] in
    List.iter
      (fun pt ->
        List.iter
          (fun s ->
            let st' = Stmt.exec space s (current_state pt) in
            let pt' = { states = Array.append pt.states [| st' |] } in
            if add pt' then next := pt' :: !next)
          stmts)
      !frontier;
    frontier := !next
  done;
  { prog; pts = List.rev !acc }

let points sys = sys.pts

type view = State_view | Perfect_recall | Oblivious

let projection proc st = List.map (fun v -> st.(Space.idx v)) (Process.vars proc)

(* HM90-style local history: the sequence of the process's views with
   consecutive stutters collapsed (the process has no clock). *)
let local_history proc pt =
  let out = ref [] in
  Array.iter
    (fun st ->
      let v = projection proc st in
      match !out with w :: _ when w = v -> () | _ -> out := v :: !out)
    pt.states;
  List.rev !out

let view_key view proc pt =
  match view with
  | State_view -> [ projection proc (current_state pt) ]
  | Perfect_recall -> local_history proc pt
  | Oblivious -> []

let knows_at sys ~view proc fact pt =
  let key = view_key view proc pt in
  List.for_all
    (fun pt' -> if view_key view proc pt' = key then fact (current_state pt') else true)
    sys.pts

let knowledge_pred sys ~view proc p pt =
  let space = Program.space sys.prog in
  knows_at sys ~view proc (fun st -> Space.holds_at space p st) pt

let state_view_matches_k sys prog pname p =
  let space = Program.space prog in
  let proc = Program.find_process prog pname in
  let symbolic = Kpt_core.Knowledge.knows_in prog pname p in
  List.for_all
    (fun pt ->
      knowledge_pred sys ~view:State_view proc p pt
      = Space.holds_at space symbolic (current_state pt))
    sys.pts

let recall_refines_state sys proc p prog =
  let space = Program.space prog in
  let fact st = Space.holds_at space p st in
  List.for_all
    (fun pt ->
      (not (knows_at sys ~view:State_view proc fact pt))
      || knows_at sys ~view:Perfect_recall proc fact pt)
    sys.pts

let recall_strictly_finer_somewhere sys proc p prog =
  let space = Program.space prog in
  let fact st = Space.holds_at space p st in
  List.find_opt
    (fun pt ->
      knows_at sys ~view:Perfect_recall proc fact pt
      && not (knows_at sys ~view:State_view proc fact pt))
    sys.pts

open Kpt_predicate
open Kpt_unity

type mapping = Space.state -> Space.state

type failure = {
  at : Space.state;
  statement : string;
  image_from : Space.state;
  image_to : Space.state;
}

type result = Simulates | Init_escapes of Space.state | Step_escapes of failure

let reachable prog = Space.states_of (Program.space prog) (Program.si prog)

let check ~abstract ~concrete ~map =
  let csp = Program.space concrete in
  let asp = Program.space abstract in
  let cinit = Space.states_of csp (Program.init concrete) in
  let init_escape =
    List.find_opt (fun st -> not (Space.holds_at asp (Program.init abstract) (map st))) cinit
  in
  match init_escape with
  | Some st -> Init_escapes st
  | None ->
      let astmts = Program.statements abstract in
      (* the first concrete step whose image no abstract statement makes *)
      let escape st cs =
        let img = map st in
        let img' = map (Stmt.exec csp cs st) in
        if img' = img || List.exists (fun as_ -> Stmt.exec asp as_ img = img') astmts then None
        else Some { at = st; statement = Stmt.name cs; image_from = img; image_to = img' }
      in
      let stmts = Program.statements concrete in
      match List.find_map (fun st -> List.find_map (escape st) stmts) (reachable concrete) with
      | Some f -> Step_escapes f
      | None -> Simulates

let simulates ~abstract ~concrete ~map =
  match check ~abstract ~concrete ~map with Simulates -> true | _ -> false

let pull_back ~abstract ~concrete ~map p =
  let csp = Program.space concrete in
  let asp = Program.space abstract in
  Bdd.disj (Space.manager csp)
    (List.filter_map
       (fun st ->
         if Space.holds_at asp p (map st) then Some (Space.pred_of_state csp st) else None)
       (reachable concrete))

let transfers_invariant ~abstract ~concrete ~map p =
  simulates ~abstract ~concrete ~map
  && Program.invariant abstract p
  && Program.invariant concrete (pull_back ~abstract ~concrete ~map p)

let project csp asp renames st =
  let avars = Space.vars asp in
  let out = Array.make (List.length avars) 0 in
  List.iter
    (fun av ->
      let name = Space.name av in
      let value =
        match List.assoc_opt name renames with
        | Some f -> f st.(Space.idx (Space.find csp name))
        | None -> st.(Space.idx (Space.find csp name))
      in
      out.(Space.idx av) <- value)
    avars;
  out

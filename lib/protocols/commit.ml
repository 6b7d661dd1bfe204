open Kpt_predicate
open Kpt_unity
open Kpt_core

type t = {
  prog : Program.t;
  space : Space.t;
  n : int;
  votes : Space.var array;
  responses : Space.var array;
  req : Space.var;
  decision : Space.var;
  adopted : Space.var array;
}

let coordinator = "C"
let participant i = Printf.sprintf "P%d" i

let build ~crashes ~participants =
  if participants < 2 || participants > 3 then
    invalid_arg "Commit.make: 2 ≤ participants ≤ 3";
  let n = participants in
  let sp = Space.create () in
  let votes = Array.init n (fun i -> Space.bool_var sp (Printf.sprintf "vote%d" i)) in
  let crashed_v =
    if crashes then
      Some (Array.init n (fun i -> Space.bool_var sp (Printf.sprintf "crashed%d" i)))
    else None
  in
  let responses =
    Array.init n (fun i ->
        Space.enum_var sp (Printf.sprintf "resp%d" i) ~values:[| "none"; "yes"; "no" |])
  in
  let req = Space.bool_var sp "req" in
  let decision = Space.enum_var sp "decision" ~values:[| "undecided"; "commit"; "abort" |] in
  let adopted =
    Array.init n (fun i ->
        Space.enum_var sp (Printf.sprintf "adopted%d" i) ~values:[| "waiting"; "commit"; "abort" |])
  in
  let open Expr in
  let ask = Stmt.make ~name:"ask" [ (req, tru) ] in
  let alive i =
    match crashed_v with None -> tru | Some c -> not_ (var c.(i))
  in
  let respond i =
    Stmt.make
      ~name:(Printf.sprintf "respond%d" i)
      ~guard:(var req &&& (var responses.(i) === nat 0) &&& alive i)
      [ (responses.(i), Ite (var votes.(i), nat 1, nat 2)) ]
  in
  let crash_stmts =
    match crashed_v with
    | None -> []
    | Some c ->
        List.init n (fun i ->
            Stmt.make ~name:(Printf.sprintf "crash%d" i) [ (c.(i), tru) ])
  in
  let all_yes = conj (List.init n (fun i -> var responses.(i) === nat 1)) in
  let some_no = disj (List.init n (fun i -> var responses.(i) === nat 2)) in
  let decide_commit =
    Stmt.make ~name:"decide_commit"
      ~guard:(all_yes &&& (var decision === nat 0))
      [ (decision, nat 1) ]
  in
  let decide_abort =
    Stmt.make ~name:"decide_abort"
      ~guard:(some_no &&& (var decision === nat 0))
      [ (decision, nat 2) ]
  in
  let adopt i =
    Stmt.make
      ~name:(Printf.sprintf "adopt%d" i)
      ~guard:((var decision <<> nat 0) &&& (var adopted.(i) === nat 0) &&& alive i)
      [ (adopted.(i), var decision) ]
  in
  let init =
    conj
      (not_ (var req)
      :: (var decision === nat 0)
      :: List.init n (fun i -> var responses.(i) === nat 0)
      @ List.init n (fun i -> var adopted.(i) === nat 0)
      @ (match crashed_v with
        | None -> []
        | Some c -> List.init n (fun i -> not_ (var c.(i)))))
  in
  let processes =
    Process.make coordinator (req :: decision :: Array.to_list responses)
    :: List.init n (fun i ->
           Process.make (participant i) [ votes.(i); responses.(i); req; decision; adopted.(i) ])
  in
  let prog =
    Program.make sp
      ~name:(Printf.sprintf "two_phase_commit_%d%s" n (if crashes then "_crash" else ""))
      ~init ~processes
      ([ ask ]
      @ List.init n respond
      @ [ decide_commit; decide_abort ]
      @ List.init n adopt @ crash_stmts)
  in
  { prog; space = sp; n; votes; responses; req; decision; adopted }

let make ?(crashes = false) ~participants () = build ~crashes ~participants

let bp t e = Expr.compile_bool t.space e

let crashed t i = Space.find t.space (Printf.sprintf "crashed%d" i)

let blocking_witness t =
  let m = Space.manager t.space in
  let undecided = bp t Expr.(var t.decision === nat 0) in
  let stuck = Kpt_logic.Ctl.eg_fair t.prog undecided in
  Space.first_state t.space (Bdd.and_ m (Program.si t.prog) stuck)

let unanimity t = bp t (Expr.conj (List.init t.n (fun i -> Expr.var t.votes.(i))))
let commit_guard t = bp t (Expr.conj (List.init t.n (fun i -> Expr.(var t.responses.(i) === nat 1))))

let safety_holds t =
  let m = Space.manager t.space in
  let open Expr in
  Program.invariant t.prog
    (Bdd.conj m
       [
         bp t ((var t.decision === nat 1) ==> conj (List.init t.n (fun i -> var t.votes.(i))));
         bp t
           ((var t.decision === nat 2)
           ==> disj (List.init t.n (fun i -> not_ (var t.votes.(i)))));
         bp t
           (conj
              (List.init t.n (fun i ->
                   (var t.adopted.(i) <<> nat 0) ==> (var t.adopted.(i) === var t.decision))));
       ])

let decision_live t =
  Kpt_logic.Props.leads_to t.prog
    (Bdd.tru (Space.manager t.space))
    (bp t Expr.(var t.decision <<> nat 0))

let guard_is_knowledge t =
  let m = Space.manager t.space in
  let si = Program.si t.prog in
  let k = Knowledge.knows_in t.prog coordinator (unanimity t) in
  Bdd.is_true (Bdd.imp m si (Bdd.iff m (commit_guard t) k))

let distributed_but_not_individual t =
  let m = Space.manager t.space in
  let si = Program.si t.prog in
  let init = Program.init t.prog in
  let group =
    Program.find_process t.prog coordinator
    :: List.init t.n (fun i -> Program.find_process t.prog (participant i))
  in
  let u = unanimity t in
  let d = Knowledge.distributed_knowledge t.space ~si group u in
  let d_ok = Bdd.implies m (Bdd.and_ m init u) d in
  let nobody =
    List.for_all
      (fun proc ->
        Bdd.is_false
          (Bdd.conj m [ init; Knowledge.knows t.space ~si proc u ]))
      group
  in
  d_ok && nobody

let adoption_teaches t ~i =
  let m = Space.manager t.space in
  let open Expr in
  let others =
    conj
      (List.filteri (fun j _ -> j <> i) (List.init t.n (fun j -> var t.votes.(j))))
  in
  Program.invariant t.prog
    (Bdd.imp m
       (bp t (var t.adopted.(i) === nat 1))
       (Knowledge.knows_in t.prog (participant i) (bp t others)))

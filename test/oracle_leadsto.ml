(* An independent, explicit-state oracle for fair leads-to: the "fair
   rounds" greatest fixpoint over enumerated states that [Props.fair_avoid]
   computed before it became a symbolic Emerson–Lei fixpoint.  It shares
   nothing with the symbolic version beyond [Space]'s enumeration and
   [Stmt.exec], so the two agreeing is evidence, not tautology.  It
   reports into no counter: the engine's leads-to metrics stay its own.

   Small spaces only: statement masks are native ints and states are
   coded as ints, so both are checked to fit rather than left to wrap. *)

open Kpt_predicate
open Kpt_unity

(* Integer code of a state for hashing. *)
let coder space =
  let vars = Array.of_list (Space.vars space) in
  fun st ->
    let code = ref 0 in
    Array.iteri (fun k v -> code := (!code * Space.card v) + st.(k)) vars;
    !code

(* The product of the domain sizes, or [None] when it exceeds [max_int]. *)
let product_of_cards space =
  List.fold_left
    (fun acc v ->
      match acc with
      | Some p when p <= max_int / Space.card v -> Some (p * Space.card v)
      | _ -> None)
    (Some 1) (Space.vars space)

let fair_avoid prog q =
  let space = Program.space prog in
  let m = Space.manager space in
  let stmts = Array.of_list (Program.statements prog) in
  let n = Array.length stmts in
  if n >= 62 then invalid_arg "Oracle_leadsto.fair_avoid: 62 or more statements";
  if product_of_cards space = None then
    invalid_arg "Oracle_leadsto.fair_avoid: state codes overflow a native int";
  let full_mask = (1 lsl n) - 1 in
  let code_of = coder space in
  (* Candidate states: reachable and avoiding q. *)
  let b0 = Bdd.and_ m (Program.si prog) (Bdd.not_ m q) in
  let states = Array.of_list (Space.states_of space b0) in
  let index = Hashtbl.create (Array.length states * 2) in
  Array.iteri (fun k st -> Hashtbl.add index (code_of st) k) states;
  let nstates = Array.length states in
  (* successor table: succ.(u).(t) = index of exec t from u, or -1 if the
     successor leaves the candidate set *)
  let succ = Array.make_matrix nstates n (-1) in
  Array.iteri
    (fun u st ->
      for t = 0 to n - 1 do
        let st' = Stmt.exec space stmts.(t) st in
        match Hashtbl.find_opt index (code_of st') with
        | Some v -> succ.(u).(t) <- v
        | None -> ()
      done)
    states;
  let alive = Array.make nstates true in
  (* Visited sets for the inner BFS, allocated once and reused across every
     [survives] call: a generation-stamped int array when the
     state × mask key space is small, a (reset) hash table otherwise. *)
  let nkeys = nstates * (full_mask + 1) in
  let use_stamps = nstates > 0 && nkeys / nstates = full_mask + 1 && nkeys <= 1 lsl 22 in
  let stamps = if use_stamps then Array.make (max nkeys 1) 0 else [||] in
  let generation = ref 0 in
  let seen_tbl = Hashtbl.create 256 in
  let queue = Queue.create () in
  (* Round check: from u, can we apply every statement at least once while
     staying among alive states?  BFS over (state, remaining-mask). *)
  let survives u =
    Engine.checkpoint ();
    incr generation;
    if not use_stamps then Hashtbl.reset seen_tbl;
    Queue.clear queue;
    let push v mask =
      let key = (v * (full_mask + 1)) + mask in
      let visited =
        if use_stamps then
          stamps.(key) = !generation || (stamps.(key) <- !generation; false)
        else Hashtbl.mem seen_tbl key || (Hashtbl.add seen_tbl key (); false)
      in
      if not visited then Queue.add (v, mask) queue
    in
    push u full_mask;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let v, mask = Queue.pop queue in
      if mask = 0 then found := true
      else
        for t = 0 to n - 1 do
          let v' = succ.(v).(t) in
          if v' >= 0 && alive.(v') then push v' (mask land lnot (1 lsl t))
        done
    done;
    !found
  in
  let changed = ref true in
  while !changed do
    Engine.checkpoint ~fuel:1 ();
    changed := false;
    for u = 0 to nstates - 1 do
      if alive.(u) && not (survives u) then begin
        alive.(u) <- false;
        changed := true
      end
    done
  done;
  let acc = ref (Bdd.fls m) in
  Array.iteri
    (fun u st -> if alive.(u) then acc := Bdd.or_ m !acc (Space.pred_of_state space st))
    states;
  !acc

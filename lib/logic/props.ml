open Kpt_predicate
open Kpt_unity

(* Fair leads-to observability: the gfp of [fair_avoid] proceeds in
   elimination sweeps over the candidate set; the sweep count and the
   survivors per sweep are what explain a slow liveness check. *)
let c_gfp_runs = Kpt_obs.counter "leadsto.gfp.runs"
let c_gfp_sweeps = Kpt_obs.counter "leadsto.gfp.sweeps"

type t =
  | Invariant of Bdd.t
  | Stable of Bdd.t
  | Unless of Bdd.t * Bdd.t
  | Ensures of Bdd.t * Bdd.t
  | Leadsto of Bdd.t * Bdd.t

let unless prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let si = Program.si prog in
  let lhs = Bdd.conj m [ si; p; Bdd.not_ m q ] in
  List.for_all
    (fun s -> Pred.holds_implies space lhs (Stmt.wp space s (Bdd.or_ m p q)))
    (Program.statements prog)

let ensures prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let si = Program.si prog in
  let lhs = Bdd.conj m [ si; p; Bdd.not_ m q ] in
  unless prog p q
  && List.exists
       (fun s -> Pred.holds_implies space lhs (Stmt.wp space s q))
       (Program.statements prog)

let stable prog p =
  let m = Space.manager (Program.space prog) in
  unless prog p (Bdd.fls m)

let invariant = Program.invariant

(* --- fair leads-to ------------------------------------------------------ *)

(* Integer code of a state for hashing. *)
let coder space =
  let vars = Array.of_list (Space.vars space) in
  fun st ->
    let code = ref 0 in
    Array.iteri (fun k v -> code := (!code * Space.card v) + st.(k)) vars;
    !code

let fair_avoid prog q =
  let space = Program.space prog in
  let m = Space.manager space in
  let stmts = Array.of_list (Program.statements prog) in
  let n = Array.length stmts in
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
  Kpt_obs.incr c_gfp_runs;
  if Kpt_obs.enabled () then
    Kpt_obs.emit "leadsto.gfp" [ ("candidates", nstates); ("statements", n) ];
  let changed = ref true in
  let sweeps = ref 0 in
  while !changed do
    incr sweeps;
    Kpt_obs.incr c_gfp_sweeps;
    Engine.checkpoint ~fuel:1 ();
    changed := false;
    for u = 0 to nstates - 1 do
      if alive.(u) && not (survives u) then begin
        alive.(u) <- false;
        changed := true
      end
    done;
    if Kpt_obs.enabled () then
      Kpt_obs.emit "leadsto.gfp.sweep"
        [
          ("sweep", !sweeps);
          ("alive", Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 alive);
        ]
  done;
  let acc = ref (Bdd.fls m) in
  Array.iteri
    (fun u st -> if alive.(u) then acc := Bdd.or_ m !acc (Space.pred_of_state space st))
    states;
  !acc

let leads_to prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let danger = fair_avoid prog q in
  let start = Bdd.conj m [ Program.si prog; p; Bdd.not_ m q ] in
  (* A fair run from a reachable p-state misses q iff it can reach, inside
     ¬q, a state that fairly avoids q; because every state of the avoiding
     run itself avoids q, it suffices that the start can avoid q, i.e. is
     itself in the gfp. *)
  Bdd.is_false (Bdd.and_ m start danger)

let wlt prog q =
  let m = Space.manager (Program.space prog) in
  Bdd.or_ m q (Bdd.not_ m (fair_avoid prog q))

let holds prog = function
  | Invariant p -> invariant prog p
  | Stable p -> stable prog p
  | Unless (p, q) -> unless prog p q
  | Ensures (p, q) -> ensures prog p q
  | Leadsto (p, q) -> leads_to prog p q

let first_state_of space pred =
  match Space.states_of space pred with [] -> None | st :: _ -> Some st

let invariant_counterexample prog p =
  let space = Program.space prog in
  let m = Space.manager space in
  first_state_of space (Bdd.and_ m (Program.si prog) (Bdd.not_ m p))

let unless_counterexample prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let si = Program.si prog in
  let bad = Bdd.conj m [ si; p; Bdd.not_ m q ] in
  let rec scan = function
    | [] -> None
    | s :: rest -> (
        let violating =
          Bdd.and_ m bad (Bdd.not_ m (Stmt.wp space s (Bdd.or_ m p q)))
        in
        match first_state_of space violating with
        | Some st -> Some (st, Stmt.name s, Stmt.exec space s st)
        | None -> scan rest)
  in
  scan (Program.statements prog)

let leads_to_counterexample prog p q =
  let space = Program.space prog in
  let m = Space.manager space in
  let danger = fair_avoid prog q in
  first_state_of space (Bdd.conj m [ Program.si prog; p; Bdd.not_ m q; danger ])

let pp space fmt prop =
  let pr = Space.pp_pred space in
  match prop with
  | Invariant p -> Format.fprintf fmt "invariant %a" pr p
  | Stable p -> Format.fprintf fmt "stable %a" pr p
  | Unless (p, q) -> Format.fprintf fmt "%a unless %a" pr p pr q
  | Ensures (p, q) -> Format.fprintf fmt "%a ensures %a" pr p pr q
  | Leadsto (p, q) -> Format.fprintf fmt "%a ↦ %a" pr p pr q

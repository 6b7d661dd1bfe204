open Kpt_predicate

(* Fixpoint observability (eqs. 1-5): every [sst] run and each of its
   rounds is counted, and — when a trace sink is installed — streamed
   with the frontier/accumulator sizes of the round. *)
let c_sst_runs = Kpt_obs.counter "sst.runs"
let c_sst_iters = Kpt_obs.counter "sst.iterations"

type t = {
  space : Space.t;
  name : string;
  init : Bdd.t;
  statements : Stmt.t list;
  processes : Process.t list;
  mutable cached_si : Bdd.t option;
}

exception Ill_formed of string

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let validate space name init statements =
  if statements = [] then ill_formed "program %s: empty statement list" name;
  List.iter
    (fun s ->
      match Space.first_state space (Stmt.totality_violation space s) with
      | Some st ->
          ill_formed "program %s: statement %s is not total at %a" name (Stmt.name s)
            (Space.pp_state space) st
      | None -> ())
    statements;
  if Bdd.is_false (Pred.normalize space init) then
    ill_formed "program %s: unsatisfiable initial condition" name

let make_with_init_pred space ~name ~init ?(processes = []) statements =
  let init = Pred.normalize space init in
  validate space name init statements;
  { space; name; init; statements; processes; cached_si = None }

let make space ~name ~init ?processes statements =
  make_with_init_pred space ~name ~init:(Expr.compile_bool space init) ?processes statements

let space p = p.space
let name p = p.name
let init p = p.init
let statements p = p.statements
let processes p = p.processes
let find_process p pname = List.find (fun pr -> Process.name pr = pname) p.processes

(* SP distributes over the statement union; each statement image goes
   through the frame-free update partition ({!Stmt.sp}). *)
let sp_pred p pred =
  let m = Space.manager p.space in
  Bdd.disj m (List.map (fun s -> Stmt.sp p.space s pred) p.statements)

(* EX: statements are deterministic and total, so [wp.s] is the exact
   pre-image along [s] and the existential pre-image of the program is
   their disjunction, folded left from [false] in statement order. *)
let pre p y =
  let m = Space.manager p.space in
  List.fold_left (fun acc s -> Bdd.or_ m acc (Stmt.wp p.space s y)) (Bdd.fls m) p.statements

let stable p pred = Pred.holds_implies p.space (sp_pred p pred) pred

(* Chained iteration for the Knaster–Tarski fixpoint of eq. 3, which
   fixes the least fixpoint but not the order in which SP's disjuncts
   are applied ("chaining", as in BDD reachability).  Within a round,
   statement [s] images the round's frontier together with every state
   the earlier statements of the round added.  SP is an exact image and
   distributes over disjunction, so a state needs imaging only until it
   has met every statement: the frontier's states meet all of them in
   the round, the states the round added only the later ones, so those
   are the next frontier.  A round that adds nothing leaves [x] closed
   under every statement — the same least fixpoint, and by canonicity
   the same BDD, as the full-set Kleene iteration [x' = p ∨ x ∨ SP.x].
   Only the fire branch is imaged ({!Stmt.post}): the skip branch of
   [sp.s.f] is [f ∧ ¬g ⊆ f ⊆ x] and never adds a state.  The states an
   image adds, [post.s.f ∧ ¬x], come from one [diff]: the complement of
   [x] is never built. *)
let sst p pred =
  let m = Space.manager p.space in
  let pred = Pred.normalize p.space pred in
  Kpt_obs.incr c_sst_runs;
  let chain (x, f, added) s =
    let fresh = Bdd.diff m (Stmt.post p.space s f) x in
    if Bdd.is_false fresh then (x, f, added)
    else (Bdd.or_ m x fresh, Bdd.or_ m f fresh, Bdd.or_ m added fresh)
  in
  let rec go i x frontier =
    if Bdd.is_false frontier then begin
      if Kpt_obs.enabled () then
        Kpt_obs.emit "sst.fixpoint"
          [
            ("iterations", i);
            ("states", Space.count_states_of p.space x);
            ("nodes", Bdd.size m x);
          ];
      x
    end
    else begin
      Kpt_obs.incr c_sst_iters;
      Engine.checkpoint ~fuel:1 ();
      if Kpt_obs.enabled () then
        Kpt_obs.emit "sst.iter"
          [
            ("iteration", i);
            ("frontier_states", Space.count_states_of p.space frontier);
            ("frontier_nodes", Bdd.size m frontier);
            ("total_states", Space.count_states_of p.space x);
          ];
      let x, _, added = List.fold_left chain (x, frontier, Bdd.fls m) p.statements in
      go (i + 1) x added
    end
  in
  go 0 pred pred

let si p =
  match p.cached_si with
  | Some x -> x
  | None ->
      let x = sst p p.init in
      p.cached_si <- Some x;
      x

let invariant p pred = Pred.holds_implies p.space (si p) pred

let fixed_points p =
  let m = Space.manager p.space in
  List.fold_left
    (fun acc s -> Bdd.and_ m acc (Stmt.unchanged p.space s))
    (Space.domain p.space) p.statements

(* The slicing constructor: a program over a subset of an existing
   program's statements.  Space, init and processes are shared, and the
   expensive [make] validation is skipped — every kept statement was
   already proved total on this space and [init] satisfiable — so slicing
   costs nothing beyond the list filter.  Requiring the statements to be
   [p]'s own (physically) is what makes that skip sound. *)
let sub_program ?name:(sname = "") p kept =
  if kept = [] then ill_formed "program %s: empty slice (no statement kept)" p.name;
  List.iter
    (fun s ->
      if not (List.memq s p.statements) then
        ill_formed "program %s: slice statement %s is not one of the program's statements"
          p.name (Stmt.name s))
    kept;
  let name = if sname = "" then p.name else sname in
  { space = p.space; name; init = p.init; statements = kept;
    processes = p.processes; cached_si = None }

let union ?name:(uname = "") f g =
  if not (f.space == g.space) then
    ill_formed "union: %s and %s live in different spaces" f.name g.name;
  let m = Space.manager f.space in
  let name = if uname = "" then f.name ^ "∥" ^ g.name else uname in
  make_with_init_pred f.space ~name
    ~init:(Bdd.and_ m f.init g.init)
    ~processes:(f.processes @ g.processes)
    (f.statements @ g.statements)

let pp fmt p =
  Format.fprintf fmt "@[<v 2>program %s@," p.name;
  if p.processes <> [] then begin
    Format.fprintf fmt "processes ";
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
      Process.pp fmt p.processes;
    Format.fprintf fmt "@,"
  end;
  Format.fprintf fmt "assign@,";
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.fprintf fmt "@,⫿ ")
    Stmt.pp fmt p.statements;
  Format.fprintf fmt "@]"

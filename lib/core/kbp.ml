open Kpt_predicate
open Kpt_unity

type kstmt = {
  kname : string;
  kguard : Kform.t;
  kassigns : (Space.var * Expr.t) list;
}

type t = {
  space : Space.t;
  name : string;
  init : Bdd.t;
  processes : Process.t list;
  kstmts : kstmt list;
  (* Validated guardless statements, one per kstmt, built once:
     [instantiate] derives each concrete statement via
     [Stmt.with_guard_pred], so the compiled assignment relations are
     physically shared across every Ĝ-iteration. *)
  bases : Stmt.t list;
}

exception Ill_formed of string

(* Eq. 25 observability: every application of the Ĝ operator is counted
   (both solvers funnel through it), the exhaustive solver counts the
   candidates it tries, and chaotic iteration reports its fixpoint depth
   — with per-step candidate sizes streamed to the trace sink. *)
let c_g_apps = Kpt_obs.counter "kbp.g_operator.applications"
let c_candidates = Kpt_obs.counter "kbp.solutions.candidates"
let c_iterate_steps = Kpt_obs.counter "kbp.iterate.steps"

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let kstmt ~name ~guard assigns = { kname = name; kguard = guard; kassigns = assigns }

let make space ~name ~init ~processes kstmts =
  if kstmts = [] then ill_formed "kbp %s: empty statement list" name;
  let known = List.map Process.name processes in
  let bases =
    List.map
      (fun s ->
        List.iter
          (fun pname ->
            if not (List.mem pname known) then
              ill_formed "kbp %s: statement %s mentions unknown process %s" name s.kname pname)
          (Kform.processes_of s.kguard);
        (* reuse the standard statement validation for targets and sorts *)
        try Stmt.make ~name:s.kname s.kassigns
        with Stmt.Ill_formed msg -> ill_formed "kbp %s: %s" name msg)
      kstmts
  in
  let init_pred = Pred.normalize space (Expr.compile_bool space init) in
  if Bdd.is_false init_pred then ill_formed "kbp %s: unsatisfiable initial condition" name;
  { space; name; init = init_pred; processes; kstmts; bases }

(* The slicing constructor, mirroring [Program.sub_program]: a KBP over a
   subset of an existing KBP's statements, with the validated bases (and
   their memoised assignment relations) carried along.  Requiring the
   statements to be [k]'s own (physically) is what makes skipping
   re-validation sound. *)
let sub ?name:(sname = "") k kept =
  if kept = [] then ill_formed "kbp %s: empty slice (no statement kept)" k.name;
  let pairs = List.combine k.kstmts k.bases in
  let bases =
    List.map
      (fun s ->
        match List.find_opt (fun (s', _) -> s' == s) pairs with
        | Some (_, base) -> base
        | None ->
            ill_formed "kbp %s: slice statement %s is not one of the kbp's statements"
              k.name s.kname)
      kept
  in
  let name = if sname = "" then k.name else sname in
  { k with name; kstmts = kept; bases }

let space k = k.space
let name k = k.name
let init k = k.init
let processes k = k.processes
let kstmts k = k.kstmts
let is_standard k = List.for_all (fun s -> Kform.is_standard s.kguard) k.kstmts

let lookup_process k pname =
  try List.find (fun p -> Process.name p = pname) k.processes
  with Not_found -> ill_formed "kbp %s: unknown process %s" k.name pname

(* Build the concrete statements for a candidate [si] from the pre-built
   bases: only the guards are compiled afresh; the assignment relations
   stay memoised inside the shared statement caches. *)
let concrete_statements k ~si =
  List.map2
    (fun s base ->
      let g = Kform.compile k.space ~lookup:(lookup_process k) ~si s.kguard in
      Stmt.with_guard_pred base g)
    k.kstmts k.bases

let to_standard_program k =
  if not (List.for_all (fun s -> Kform.is_standard s.kguard) k.kstmts) then
    ill_formed "kbp %s: knowledge guards present; use instantiate" k.name;
  let stmts = concrete_statements k ~si:(Bdd.tru (Space.manager k.space)) in
  Program.make_with_init_pred k.space ~name:k.name ~init:k.init ~processes:k.processes stmts

let instantiate k ~si =
  let stmts = concrete_statements k ~si in
  Program.make_with_init_pred k.space ~name:k.name ~init:k.init ~processes:k.processes stmts

let g_operator k x =
  Kpt_obs.incr c_g_apps;
  Pred.normalize k.space (Program.si (instantiate k ~si:x))

(* Over-approximation of every state any solution can contain: the
   strongest invariant of the unguarded bodies, each restricted to where
   it is defined.  A body that is undefined at a state contributes no
   transition there (the genuine guard would have to be false there in
   any legal instantiation). *)
let universe k =
  let sp = k.space in
  let m = Space.manager sp in
  let total b = Stmt.with_guard_pred b (Bdd.not_ m (Stmt.totality_violation sp b)) in
  Program.si
    (Program.make_with_init_pred sp ~name:k.name ~init:k.init ~processes:k.processes
       (List.map total k.bases))

exception Too_many_candidates of { free : Bigcount.t; cap : int }

let max_free = 22

(* A standard KBP's Ĝ ignores [X], so its only possible fixpoint is
   Ĝ(init) itself.  Otherwise every candidate is [init] plus a subset of
   the free states of the universe, tried exhaustively.  The free states
   are counted symbolically before any is listed: past the cap there can
   be more of them than a walk could visit. *)
let solutions k =
  if is_standard k then
    match g_operator k k.init with x -> [ x ] | exception Program.Ill_formed _ -> []
  else begin
    let sp = k.space in
    let m = Space.manager sp in
    let outside_init = Bdd.diff m (universe k) k.init in
    let count = Space.count_states_exact sp outside_init in
    if Bigcount.compare count (Bigcount.of_int max_free) > 0 then
      raise (Too_many_candidates { free = count; cap = max_free });
    let free = Array.of_list (Space.states_of sp outside_init) in
    let nfree = Array.length free in
    let found = ref [] in
    for mask = 0 to (1 lsl nfree) - 1 do
      Engine.checkpoint ();
      let x = ref k.init in
      for b = 0 to nfree - 1 do
        if (mask lsr b) land 1 = 1 then x := Bdd.or_ m !x (Space.pred_of_state sp free.(b))
      done;
      Kpt_obs.incr c_candidates;
      let candidate = Pred.normalize sp !x in
      match g_operator k candidate with
      | gx -> if Bdd.equal gx candidate then found := candidate :: !found
      | exception Program.Ill_formed _ -> ()
    done;
    List.sort
      (fun a b -> compare (Space.count_states_of sp a) (Space.count_states_of sp b))
      !found
  end

let strongest_solution k =
  let sols = solutions k in
  let sp = k.space in
  List.find_opt (fun x -> List.for_all (fun y -> Pred.holds_implies sp x y) sols) sols

type outcome =
  | Converged of { si : Bdd.t; steps : int }
  | Diverged of { orbit : Bdd.t list; steps : int }
  | Budget_exhausted of { reason : Budget.reason; steps : int; candidate : Bdd.t }

(* Chaotic iteration with cycle detection.  [progress] tracks the newest
   (steps, candidate) pair so a budget exhaustion — raised from anywhere
   inside a Ĝ application, down to the BDD allocator — is reported
   against a concrete partial result.  Each Ĝ-step consumes one unit of
   fuel; on a finite space the candidate sequence repeats, so the loop
   ends without a step limit. *)
let run_iteration k ~progress =
  let sp = k.space in
  let seen = Hashtbl.create 64 in
  let rec go x steps trail =
    Kpt_obs.incr c_iterate_steps;
    Engine.checkpoint ~fuel:1 ();
    let x' = g_operator k x in
    progress := (steps + 1, x');
    if Kpt_obs.enabled () then
      Kpt_obs.emit "kbp.iterate"
        [ ("step", steps); ("candidate_states", Space.count_states_of sp x') ];
    if Bdd.equal x' x then Converged { si = x; steps }
    else if Hashtbl.mem seen (Bdd.uid x') then begin
      (* [trail] is newest-first; the orbit runs from the previous
         occurrence of x' through the newest element (and back to x'). *)
      let rec upto acc = function
        | [] -> acc
        | y :: rest -> if Bdd.equal y x' then y :: acc else upto (y :: acc) rest
      in
      Diverged { orbit = upto [] trail; steps }
    end
    else begin
      Hashtbl.add seen (Bdd.uid x') ();
      go x' (steps + 1) (x' :: trail)
    end
  in
  let x0 = Pred.normalize sp k.init in
  progress := (0, x0);
  Hashtbl.add seen (Bdd.uid x0) ();
  go x0 0 [ x0 ]

let solve ?budget k =
  let progress = ref (0, k.init) in
  let run () = run_iteration k ~progress in
  try match budget with None -> run () | Some limits -> Engine.with_budget limits run
  with Budget.Exhausted reason ->
    let steps, candidate = !progress in
    Budget_exhausted { reason; steps; candidate }

let pp fmt k =
  Format.fprintf fmt "@[<v 2>knowledge-based protocol %s@," k.name;
  Format.fprintf fmt "processes ";
  Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") Process.pp fmt
    k.processes;
  Format.fprintf fmt "@,assign@,";
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.fprintf fmt "@,⫿ ")
    (fun fmt s ->
      let pp_assign fmt (v, rhs) =
        Format.fprintf fmt "%s := %a" (Space.name v) Expr.pp rhs
      in
      Format.fprintf fmt "@[<hov 2>%s:@ %a@ if %a@]" s.kname
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ∥@ ") pp_assign)
        s.kassigns Kform.pp s.kguard)
    fmt k.kstmts;
  Format.fprintf fmt "@]"

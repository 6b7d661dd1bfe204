open Kpt_predicate
open Kpt_unity
open Kpt_core
module D = Diagnostic
module V = Rw.V

(* The semantic lint tier (KPT1xx): passes that run the verification
   engine itself — reachability fixpoints, the Ĝ-iteration, wcyl — under
   a small deterministic budget ({!Budget.analysis_default}), so the
   linter can see what no syntactic pass can: a guard unsatisfiable in
   reachable states, a reachable deadlock, a knowledge guard that is in
   fact locally implementable (the paper's Figure 3→4 move).

   Code map (catalogued in DESIGN.md):
   - KPT100 info     semantic passes skipped (budget exhausted / Ĝ cycles)
   - KPT101 warning  statement never enabled in a reachable state
   - KPT102 warning  guard unsatisfiable on the whole domain
   - KPT103 error    unsatisfiable initial condition (surfaced by the
                     lint driver from the elaboration error — both
                     program constructors reject such specs outright)
   - KPT104 info     reachable states with no statement enabled
   - KPT105 info     single-agent knowledge guard locally implementable:
                     the concrete local predicate over vars_i via wcyl
                     (eqs. 6, 13)
   - KPT106 info     declared property invariant but not inductive, with
                     the largest inductive strengthening as a candidate

   Determinism: the default budget has no wall-clock component, every
   message renders symbolic counts (never BDD-order-dependent state
   enumerations), and KPT105's disjuncts are enumerated in variable
   declaration order — output is identical across pool sizes and reorder
   modes. *)

let skipped ?file reason =
  D.info ?file ~code:"KPT100"
    ~hint:"raise --fuel/--max-nodes, or run kpt check/solve for the full story"
    (Printf.sprintf "semantic passes skipped: %s" reason)

let exhausted ?file reason =
  skipped ?file
    (Printf.sprintf "analysis budget exhausted (%s)" (Budget.reason_to_string reason))

(* ---- KPT105: local implementability of knowledge guards ------------------- *)

(* Eq. 13 seats [K_i p] inside process i's variables; compiling the whole
   guard [g] at the solved SI and asking wcyl for
   [ℓ = (∀ vars_i-complement :: SI ⇒ g)] yields the weakest vars_i-local
   predicate at most as strong as g within SI.  The guard is locally
   implementable exactly when ℓ covers it there: [SI ∧ ℓ ≡ SI ∧ g] — then
   process i can evaluate ℓ on its own variables instead of the K-guard,
   with the identical solve verdict (the Figure 3→4 derivation). *)
let local_guard kbp ~si (s : Kbp.kstmt) =
  let sp = Kbp.space kbp in
  let m = Space.manager sp in
  let procs = Kbp.processes kbp in
  let find_proc n = List.find_opt (fun p -> Process.name p = n) procs in
  match Kform.processes_of s.Kbp.kguard with
  | [ pname ] when not (Kform.is_standard s.Kbp.kguard) -> (
      match find_proc pname with
      | None -> None
      | Some proc ->
          let lookup n =
            match find_proc n with Some p -> p | None -> raise Not_found
          in
          let g = Kform.compile sp ~lookup ~si s.Kbp.kguard in
          let ell = Wcyl.wcyl sp (Process.vars proc) (Bdd.imp m si g) in
          if Bdd.equal (Bdd.and_ m si ell) (Bdd.and_ m si g) then
            Some (pname, ell)
          else None)
  | _ -> None

(* Render a vars-local predicate as a small DNF over its own support, in
   variable declaration order: booleans as [v]/[~v], bounded naturals and
   enums as [v = k].  States outside [care] (the solved SI, when given)
   are don't-cares: each minterm of [pred] that intersects [care] is
   greedily widened to a cube that stays inside [pred] wherever [care]
   holds, and a first-uncovered-minterm greedy cover keeps only the cubes
   needed — so the rendered predicate [r] satisfies [r ∧ care ≡ pred ∧
   care] while being far shorter than the raw minterm sum.  The
   enumeration is over program variables (not BDD bits), so the text is
   independent of the variable order the manager happens to have sifted
   to. *)
let render_local sp ?care pred =
  let m = Space.manager sp in
  let care = match care with Some c -> c | None -> Bdd.tru m in
  if Bdd.is_true pred then "true"
  else if Bdd.is_false pred then "false"
  else begin
    let support = Rw.vars_of_support sp (Bdd.support m pred) in
    let vars =
      List.filter (fun v -> V.mem (Space.idx v) support) (Space.vars sp)
    in
    (* saturates at 257, so the product cannot wrap around *)
    let combos =
      List.fold_left
        (fun acc v -> if acc > 256 || Space.card v > 256 then 257 else acc * Space.card v)
        1 vars
    in
    if combos > 256 then
      Printf.sprintf "(a predicate over %s)"
        (String.concat ", " (List.map Space.name vars))
    else begin
      let atom v k =
        match (Space.card v, k) with
        | 2, 1 when Space.value_name v 1 = "true" -> Space.name v
        | 2, 0 when Space.value_name v 0 = "false" -> "~" ^ Space.name v
        | _ -> Printf.sprintf "%s = %s" (Space.name v) (Space.value_name v k)
      in
      let atom_pred v k =
        match (Space.card v, Space.value_name v k) with
        | 2, "true" -> Expr.compile_bool sp (Expr.Var v)
        | 2, "false" -> Expr.compile_bool sp (Expr.Not (Expr.Var v))
        | _ -> Expr.compile_bool sp (Expr.Eq (Expr.Var v, Expr.Cint k))
      in
      let cube_pred cube =
        List.fold_left
          (fun acc (v, k) -> Bdd.and_ m acc (atom_pred v k))
          (Bdd.tru m) cube
      in
      (* minterms of [pred] that intersect [care], in declaration order;
         a full assignment over the support either implies [pred] or its
         negation, so non-emptiness of the conjunction is membership *)
      let minterms = ref [] in
      let rec go vs acc_pred acc =
        match vs with
        | [] ->
            if not (Bdd.is_false (Bdd.and_ m acc_pred care)) then
              minterms := (List.rev acc, acc_pred) :: !minterms
        | v :: rest ->
            for k = 0 to Space.card v - 1 do
              let p = Bdd.and_ m acc_pred (atom_pred v k) in
              if not (Bdd.is_false (Bdd.and_ m pred p)) then
                go rest p ((v, k) :: acc)
            done
      in
      go vars (Bdd.tru m) [];
      let minterms = List.rev !minterms in
      (* widen: drop literals (declaration order) while the cube still
         implies [pred] wherever [care] holds *)
      let expand cube =
        List.fold_left
          (fun kept (v, _) ->
            let without =
              List.filter (fun (v', _) -> Space.idx v' <> Space.idx v) kept
            in
            if Bdd.implies m (Bdd.and_ m (cube_pred without) care) pred then
              without
            else kept)
          cube cube
      in
      let chosen = ref [] in
      List.iter
        (fun (cube, cp) ->
          if not (List.exists (fun (_, chp) -> Bdd.implies m cp chp) !chosen)
          then begin
            let e = expand cube in
            chosen := (e, cube_pred e) :: !chosen
          end)
        minterms;
      match List.rev !chosen with
      | [] -> "false"
      | [ ([], _) ] -> "true"
      | cs ->
          String.concat " \\/ "
            (List.map
               (fun (atoms, _) ->
                 String.concat " /\\ " (List.map (fun (v, k) -> atom v k) atoms))
               cs)
    end
  end

(* ---- program-level passes (KPT101/102/104) -------------------------------- *)

(* KPT102, also raised for the standard guards of a KBP whose Ĝ-iteration
   diverges (see [analyse_kbp]) *)
let unsat_guard ?file label =
  D.warning ?file ~code:"KPT102" ~hint:"delete the statement, or repair the guard"
    (Printf.sprintf
       "guard of %s is unsatisfiable: no type-correct state at all satisfies \
        it, reachable or not"
       label)

(* [stmts] are (label, guard predicate) pairs — concrete statements of a
   standard program, or a KBP's statements instantiated at the solved
   SI (whose knames the labels preserve). *)
let program_passes ?file sp ~stmts ~si =
  let m = Space.manager sp in
  let dom = Space.domain sp in
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  List.iter
    (fun (label, g) ->
      Engine.checkpoint ~fuel:1 ();
      let g = Bdd.and_ m g dom in
      if Bdd.is_false g then
        emit (unsat_guard ?file label)
      else if Bdd.is_false (Bdd.and_ m g si) then
        emit
          (D.warning ?file ~code:"KPT101"
             ~hint:"the statement is dead code under this init; delete it or widen init"
             (Printf.sprintf
                "%s is never enabled in any reachable state (guard ∧ SI ≡ false, \
                 eqs. 3-5), though its guard is satisfiable on the domain"
                label)))
    stmts;
  let enabled = Bdd.disj m (List.map (fun (_, g) -> Bdd.and_ m g dom) stmts) in
  let stuck = Bdd.and_ m si (Bdd.not_ m enabled) in
  if not (Bdd.is_false stuck) then
    emit
      (D.info ?file ~code:"KPT104"
         (Printf.sprintf
            "%s reachable state(s) enable no statement at all: execution can \
             only stutter there (UNITY termination, §5)"
            (Bigcount.to_string (Space.count_states_exact sp stuck))));
  List.rev !ds

let analyse_program ?file prog =
  let sp = Program.space prog in
  let stmts =
    List.map
      (fun s -> (Stmt.name s, Stmt.guard_pred sp s))
      (Program.statements prog)
  in
  program_passes ?file sp ~stmts ~si:(Program.si prog)

(* ---- KPT106: invariant weakness ------------------------------------------- *)

(* The largest inductive subset of [p]: the gfp of [X ↦ X ∧ ⋀s wp.s.X]
   below [p ∧ domain].  If [p] is an invariant but not stable, the gfp
   still contains SI (SI is inductive and within p), so it is a genuine
   strengthening candidate the user can declare instead. *)
let inductive_core prog p =
  let sp = Program.space prog in
  let m = Space.manager sp in
  let rec go x =
    Engine.checkpoint ~fuel:1 ();
    let x' =
      List.fold_left
        (fun acc s -> Bdd.and_ m acc (Stmt.wp sp s x))
        x (Program.statements prog)
    in
    if Bdd.equal x x' then x else go x'
  in
  go (Bdd.and_ m p (Space.domain sp))

let invariant_weakness ?file ?(label = "the property") prog p =
  if (not (Program.invariant prog p)) || Program.stable prog p then None
  else begin
    let core = inductive_core prog p in
    let sp = Program.space prog in
    let d =
      D.info ?file ~code:"KPT106"
        ~hint:"declare the strengthened candidate to get an inductive proof"
        (Printf.sprintf
           "%s is invariant but not inductive (some statement can falsify it \
            from a non-reachable state); its largest inductive strengthening \
            holds on %s of %s state(s)"
           label
           (Bigcount.to_string (Space.count_states_exact sp core))
           (Bigcount.to_string (Space.count_states_exact sp p)))
    in
    Some (d, core)
  end

(* ---- the KBP entry point --------------------------------------------------- *)

let analyse_kbp ?file kbp =
  let sp = Kbp.space kbp in
  if Kbp.is_standard kbp then analyse_program ?file (Kbp.to_standard_program kbp)
  else
    match Kbp.solve kbp with
    | Kbp.Converged { si; steps = _ } ->
        let concrete =
          match Kbp.instantiate kbp ~si with
          | prog ->
              let stmts =
                List.map
                  (fun s -> (Stmt.name s, Stmt.guard_pred sp s))
                  (Program.statements prog)
              in
              program_passes ?file sp ~stmts ~si
          | exception Program.Ill_formed msg ->
              [ skipped ?file (Printf.sprintf "instantiation at SI is ill-formed (%s)" msg) ]
        in
        let locals =
          List.filter_map
            (fun (s : Kbp.kstmt) ->
              Engine.checkpoint ~fuel:1 ();
              match local_guard kbp ~si s with
              | Some (pname, ell) ->
                  Some
                    (D.info ?file ~code:"KPT105"
                       ~hint:
                         (Printf.sprintf
                            "substituting the local predicate for the guard of %s \
                             leaves the solve verdict unchanged (Figure 3→4)"
                            s.Kbp.kname)
                       (Printf.sprintf
                          "knowledge guard of %s is locally implementable by %s: \
                           within SI it equals %s (wcyl over %s's variables, \
                           eqs. 6, 13)"
                          s.Kbp.kname pname (render_local sp ~care:si ell) pname))
              | None -> None)
            (Kbp.kstmts kbp)
        in
        concrete @ locals
    | Kbp.Diverged { orbit; steps = _ } ->
        (* no SI to be reachability-aware against; still flag guards that
           are unsatisfiable on the whole domain (standard guards only —
           a K-guard's denotation needs an SI) *)
        let m = Space.manager sp in
        let dom = Space.domain sp in
        let dead =
          List.filter_map
            (fun (s : Kbp.kstmt) ->
              if Kform.is_standard s.Kbp.kguard then begin
                let lookup _ = raise Not_found in
                let g = Kform.compile sp ~lookup ~si:dom s.Kbp.kguard in
                if Bdd.is_false (Bdd.and_ m g dom) then
                  Some (unsat_guard ?file s.Kbp.kname)
                else None
              end
              else None)
            (Kbp.kstmts kbp)
        in
        dead
        @ [
            skipped ?file
              (Printf.sprintf
                 "Ĝ-iteration cycles with period %d (no solution to analyse, \
                  eq. 25)"
                 (List.length orbit));
          ]
    | Kbp.Budget_exhausted { reason; _ } -> [ exhausted ?file reason ]

let analyse ?file ?(budget = Budget.analysis_default) (_sp, kbp) =
  match Engine.with_budget budget (fun () -> analyse_kbp ?file kbp) with
  | ds -> List.sort D.compare ds
  | exception Budget.Exhausted reason -> [ exhausted ?file reason ]
  | exception exn -> (
      (* a spec error only the solver sees, such as a non-total assignment *)
      match D.of_exn ?file exn with Some d -> [ d ] | None -> raise exn)

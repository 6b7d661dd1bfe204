open Kpt_syntax
module S = Rw.S
module D = Diagnostic

(* ---- declaration environment --------------------------------------------- *)

type env = {
  file : string option;
  vars : S.t;  (* declared base names (scalars and arrays) *)
  var_ty : (string, Ast.ty) Hashtbl.t;
  var_span : (string, Loc.span) Hashtbl.t;
  enums : (string, int) Hashtbl.t;  (* enum literal → value index *)
  procs : (string, S.t * Loc.span) Hashtbl.t;
}

let env_of_program ?file (p : Ast.program) =
  let var_ty = Hashtbl.create 16 and var_span = Hashtbl.create 16 in
  let enums = Hashtbl.create 16 in
  let vars =
    List.fold_left
      (fun acc (names, ty) ->
        (match ty with
        | Ast.Tenum vs | Ast.Tarray (Ast.Tenum vs, _) ->
            List.iteri (fun i v -> Hashtbl.replace enums v i) vs
        | _ -> ());
        List.fold_left
          (fun acc (name, span) ->
            Hashtbl.replace var_ty name ty;
            if not (Hashtbl.mem var_span name) then Hashtbl.replace var_span name span;
            S.add name acc)
          acc names)
      S.empty p.Ast.p_vars
  in
  let procs = Hashtbl.create 8 in
  List.iter
    (fun (name, pvars, span) ->
      Hashtbl.replace procs name (S.of_list pvars, span))
    p.Ast.p_processes;
  { file; vars; var_ty; var_span; enums; procs }

let stmt_label i (s : Ast.stmt) =
  match s.Ast.s_name with Some n -> n | None -> Printf.sprintf "statement %d" (i + 1)

let names set = String.concat ", " (S.elements set)

(* ---- constant folding ----------------------------------------------------- *)

type const = CB of bool | CN of int

let rec fold env (e : Ast.expr) =
  let bool2 a b op =
    match (fold env a, fold env b) with
    | Some (CB x), Some (CB y) -> Some (CB (op x y))
    | _ -> None
  in
  let num2 a b op =
    match (fold env a, fold env b) with
    | Some (CN x), Some (CN y) -> Some (op x y)
    | _ -> None
  in
  match e.Ast.expr with
  | Ast.Etrue -> Some (CB true)
  | Ast.Efalse -> Some (CB false)
  | Ast.Enum n -> Some (CN n)
  | Ast.Eident name ->
      if S.mem name env.vars then None
      else Option.map (fun k -> CN k) (Hashtbl.find_opt env.enums name)
  | Ast.Enot a -> (
      match fold env a with Some (CB b) -> Some (CB (not b)) | _ -> None)
  | Ast.Eand (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CB false), _ | _, Some (CB false) -> Some (CB false)
      | Some (CB true), Some (CB true) -> Some (CB true)
      | _ -> None)
  | Ast.Eor (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CB true), _ | _, Some (CB true) -> Some (CB true)
      | Some (CB false), Some (CB false) -> Some (CB false)
      | _ -> None)
  | Ast.Eimp (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CB false), _ | _, Some (CB true) -> Some (CB true)
      | Some (CB true), Some (CB false) -> Some (CB false)
      | _ -> None)
  | Ast.Eiff (a, b) -> bool2 a b ( = )
  | Ast.Eeq (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CN x), Some (CN y) -> Some (CB (x = y))
      | Some (CB x), Some (CB y) -> Some (CB (x = y))
      | _ -> None)
  | Ast.Ene (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CN x), Some (CN y) -> Some (CB (x <> y))
      | Some (CB x), Some (CB y) -> Some (CB (x <> y))
      | _ -> None)
  | Ast.Elt (a, b) -> num2 a b (fun x y -> CB (x < y))
  | Ast.Ele (a, b) -> num2 a b (fun x y -> CB (x <= y))
  | Ast.Egt (a, b) -> num2 a b (fun x y -> CB (x > y))
  | Ast.Ege (a, b) -> num2 a b (fun x y -> CB (x >= y))
  | Ast.Eadd (a, b) -> num2 a b (fun x y -> CN (x + y))
  | Ast.Esub (a, b) -> num2 a b (fun x y -> CN (max 0 (x - y)))  (* saturating *)
  | Ast.Eindex _ | Ast.Eknow _ | Ast.Egroup _ -> None

(* ---- pass: knowledge locality + interference (eq. 13) --------------------- *)

(* A statement whose guard names exactly one process in its knowledge
   operators is attributed to that process: eq. 13 makes [K_i p] a
   predicate on [vars_i], so everything the guard reads {e outside} the
   operators, and everything the statement writes, must be local to it. *)
let knowledge_pass env (stmts : (int * Ast.stmt * Rw.stmt_rw) list) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let attributed = ref [] in
  List.iter
    (fun (i, s, rw) ->
      let label = stmt_label i s in
      List.iter
        (fun (k : Rw.kop) ->
          List.iter
            (fun agent ->
              if not (Hashtbl.mem env.procs agent) then
                emit
                  (D.error ?file:env.file ~span:k.Rw.kspan ~code:"KPT013"
                     (Printf.sprintf
                        "knowledge operator in %s refers to undeclared process %s" label
                        agent)))
            k.Rw.agents)
        rw.Rw.kops;
      let agents =
        List.concat_map (fun (k : Rw.kop) -> k.Rw.agents) rw.Rw.kops
        |> List.filter (Hashtbl.mem env.procs)
        |> List.sort_uniq compare
      in
      match agents with
      | [ p ] ->
          let pvars, _ = Hashtbl.find env.procs p in
          let guard_span =
            match s.Ast.s_guard with Some g -> Some g.Ast.espan | None -> None
          in
          let plain = S.inter rw.Rw.guard_plain env.vars in
          let non_local = S.diff plain pvars in
          if not (S.is_empty non_local) then
            emit
              (D.error ?file:env.file ?span:guard_span ~code:"KPT012"
                 ~hint:
                   (Printf.sprintf
                      "move the test under K[%s], or extend %s's variable set" p p)
                 (Printf.sprintf
                    "guard of %s mixes K[%s] with reads of %s, which %s cannot \
                     observe (eq. 13 makes knowledge local to a process's variables)"
                    label p (names non_local) p));
          let foreign = S.diff (S.inter rw.Rw.writes env.vars) pvars in
          if not (S.is_empty foreign) then
            emit
              (D.warning ?file:env.file ~span:s.Ast.s_span ~code:"KPT030"
                 (Printf.sprintf
                    "%s acts on %s's knowledge but writes %s, which %s cannot access"
                    label p (names foreign) p));
          attributed := (p, S.inter rw.Rw.writes env.vars, i, s) :: !attributed
      | _ -> ())
    stmts;
  (* interference: the same variable written on behalf of two processes *)
  let att = List.rev !attributed in
  List.iteri
    (fun n (p, writes, _, _) ->
      List.iteri
        (fun m (q, writes', i', s') ->
          if m > n && p <> q then begin
            let shared = S.inter writes writes' in
            if not (S.is_empty shared) then
              emit
                (D.warning ?file:env.file ~span:s'.Ast.s_span ~code:"KPT031"
                   (Printf.sprintf
                      "interference: %s is written on behalf of both %s and %s"
                      (names shared) p q));
            ignore i'
          end)
        att)
    att;
  List.rev !ds

(* ---- pass: K-polarity (eq. 25, Figures 1-2) ------------------------------- *)

let polarity_pass env (stmts : (int * Ast.stmt * Rw.stmt_rw) list) =
  let ds = ref [] in
  List.iter
    (fun (i, s, rw) ->
      let label = stmt_label i s in
      List.iter
        (fun (k : Rw.kop) ->
          let who = String.concat "," k.Rw.agents in
          if k.Rw.negative_position then
            ds :=
              D.warning ?file:env.file ~span:k.Rw.kspan ~code:"KPT011"
                ~hint:"rephrase the guard so knowledge appears positively"
                (Printf.sprintf
                   "knowledge operator K[%s] in negative position in the guard of \
                    %s: Ĝ need not be monotonic, so the KBP may be ill-posed \
                    (eq. 25)"
                   who label)
              :: !ds;
          let negs = S.inter k.Rw.negated_reads env.vars in
          if not (S.is_empty negs) then
            ds :=
              D.warning ?file:env.file ~span:k.Rw.kspan ~code:"KPT010"
                ~hint:
                  "knowledge of negated facts can be lost along a run; consider \
                   a positively-phrased, stable fact"
                (Printf.sprintf
                   "K[%s] is applied to a negated fact (%s occurs under negation): \
                    possibly ill-posed KBP — SI = strongest x : [ŜP.x ⇒ x] may \
                    have no solution or lose monotonicity in init (Figures 1-2)"
                   who (names negs))
              :: !ds)
        rw.Rw.kops)
    stmts;
  List.rev !ds

(* ---- pass: vacuity / hygiene ---------------------------------------------- *)

let is_identity_pair (t, (e : Ast.expr)) =
  match (t, e.Ast.expr) with
  | Ast.Tvar v, Ast.Eident v' -> v = v'
  | Ast.Tindex (a, i), Ast.Eindex (a', i') -> a = a' && Ast.equal_expr i i'
  | _ -> false

let hygiene_pass env (p : Ast.program) (stmts : (int * Ast.stmt * Rw.stmt_rw) list) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  (* variable usage *)
  let init_reads = Rw.reads ~vars:env.vars p.Ast.p_init in
  let reads, writes =
    List.fold_left
      (fun (r, w) (_, _, rw) -> (S.union r (Rw.all_reads rw), S.union w rw.Rw.writes))
      (init_reads, S.empty) stmts
  in
  S.iter
    (fun v ->
      let span = Hashtbl.find_opt env.var_span v in
      if (not (S.mem v reads)) && not (S.mem v writes) then
        emit
          (D.warning ?file:env.file ?span ~code:"KPT020"
             ~hint:"delete the declaration"
             (Printf.sprintf "variable %s is never used" v))
      else if S.mem v writes && not (S.mem v reads) then
        emit
          (D.info ?file:env.file ?span ~code:"KPT021"
             (Printf.sprintf
                "variable %s is write-only: it is assigned but never read or \
                 constrained by init"
                v)))
    env.vars;
  (* per-statement checks *)
  List.iter
    (fun (i, (s : Ast.stmt), _) ->
      let label = stmt_label i s in
      if
        List.length s.Ast.s_targets = List.length s.Ast.s_exprs
        && List.for_all is_identity_pair
             (List.combine s.Ast.s_targets s.Ast.s_exprs)
      then
        emit
          (D.warning ?file:env.file ~span:s.Ast.s_span ~code:"KPT022"
             (Printf.sprintf "%s assigns every target to itself (a no-op)" label));
      match s.Ast.s_guard with
      | None -> ()
      | Some g -> (
          match fold env g with
          | Some (CB false) ->
              emit
                (D.warning ?file:env.file ~span:g.Ast.espan ~code:"KPT024"
                   (Printf.sprintf
                      "guard of %s is constantly false: the statement can never be \
                       selected"
                      label))
          | Some (CB true) ->
              emit
                (D.info ?file:env.file ~span:g.Ast.espan ~code:"KPT025"
                   (Printf.sprintf "guard of %s is trivially true" label))
          | _ -> ()))
    stmts;
  (* duplicate statements *)
  List.iteri
    (fun n (i, s, _) ->
      List.iteri
        (fun m (j, s', _) ->
          if m > n && Ast.equal_stmt s s' then
            emit
              (D.warning ?file:env.file ~span:s'.Ast.s_span ~code:"KPT023"
                 (Printf.sprintf "%s duplicates %s (same targets, right-hand \
                                  sides and guard)"
                    (stmt_label j s') (stmt_label i s))))
        stmts)
    stmts;
  List.rev !ds

(* ---- pass: nat(k) range (comparisons and assignments) -------------------- *)

(* [Some k] when [v] (or each element of array [v]) is a [nat(k)] *)
let nat_of env v =
  match Hashtbl.find_opt env.var_ty v with
  | Some (Ast.Tnat k | Ast.Tarray (Ast.Tnat k, _)) -> Some k
  | _ -> None

let nat_bound env (e : Ast.expr) =
  match e.Ast.expr with
  | Ast.Eident v | Ast.Eindex (v, _) -> Option.map (fun k -> (v, k)) (nat_of env v)
  | _ -> None

let range_pass env (p : Ast.program) (stmts : (int * Ast.stmt * Rw.stmt_rw) list) =
  let ds = ref [] in
  let check span cmp a b =
    (* [cmp]: the comparison's outcome as [var OP const]; mirror if the
       constant is on the left *)
    let report v k n verdict =
      ds :=
        D.warning ?file:env.file ~span ~code:"KPT026"
          (Printf.sprintf
             "%s : nat(%d) is compared with %d, which is outside its range — the \
              comparison is always %b"
             v k n verdict)
        :: !ds
    in
    match (nat_bound env a, fold env b) with
    | Some (v, k), Some (CN n) when n > k -> report v k n (fst cmp)
    | _ -> (
        match (fold env a, nat_bound env b) with
        | Some (CN n), Some (v, k) when n > k -> report v k n (snd cmp)
        | _ -> ())
  in
  let rec walk (e : Ast.expr) =
    let span = e.Ast.espan in
    match e.Ast.expr with
    | Ast.Etrue | Ast.Efalse | Ast.Enum _ | Ast.Eident _ -> ()
    | Ast.Eindex (_, i) -> walk i
    | Ast.Enot a -> walk a
    | Ast.Eand (a, b) | Ast.Eor (a, b) | Ast.Eimp (a, b) | Ast.Eiff (a, b)
    | Ast.Eadd (a, b) | Ast.Esub (a, b) ->
        walk a;
        walk b
    (* (outcome if var OP const, outcome if const OP var) for out-of-range const *)
    | Ast.Eeq (a, b) -> check span (false, false) a b; walk a; walk b
    | Ast.Ene (a, b) -> check span (true, true) a b; walk a; walk b
    | Ast.Elt (a, b) -> check span (true, false) a b; walk a; walk b
    | Ast.Ele (a, b) -> check span (true, false) a b; walk a; walk b
    | Ast.Egt (a, b) -> check span (false, true) a b; walk a; walk b
    | Ast.Ege (a, b) -> check span (false, true) a b; walk a; walk b
    | Ast.Eknow (_, a) | Ast.Egroup (_, _, a) -> walk a
  in
  (* a constant past [k] assigned to a [nat(k)] target leaves the range
     whenever the statement fires: it is not total, and the solver
     rejects the program.  A guard that folds to false never fires. *)
  let assign label (s : Ast.stmt) =
    if
      List.compare_lengths s.Ast.s_targets s.Ast.s_exprs = 0
      && Option.bind s.Ast.s_guard (fold env) <> Some (CB false)
    then
      List.iter2
        (fun (Ast.Tvar v | Ast.Tindex (v, _)) (e : Ast.expr) ->
          match (nat_of env v, fold env e) with
          | Some k, Some (CN n) when n > k ->
              ds :=
                D.error ?file:env.file ~span:e.Ast.espan ~code:"KPT027"
                  ~hint:"a nat(k) variable holds 0..k; widen its range or change the value"
                  (Printf.sprintf
                     "%s assigns %d to %s : nat(%d), outside its range — the statement \
                      is not total"
                     label n v k)
                :: !ds
          | _ -> ())
        s.Ast.s_targets s.Ast.s_exprs
  in
  walk p.Ast.p_init;
  List.iter
    (fun (i, (s : Ast.stmt), _) ->
      List.iter walk s.Ast.s_exprs;
      List.iter (function Ast.Tindex (_, i) -> walk i | Ast.Tvar _ -> ()) s.Ast.s_targets;
      Option.iter walk s.Ast.s_guard;
      assign (stmt_label i s) s)
    stmts;
  List.rev !ds

(* ---- pass: process declarations ------------------------------------------- *)

let process_pass env (p : Ast.program) =
  let ds = ref [] in
  List.iter
    (fun (name, pvars, span) ->
      List.iter
        (fun v ->
          if not (S.mem v env.vars) then
            ds :=
              D.error ?file:env.file ~span ~code:"KPT014"
                (Printf.sprintf "process %s lists undeclared variable %s" name v)
              :: !ds)
        pvars)
    p.Ast.p_processes;
  List.rev !ds

(* ---- entry points ---------------------------------------------------------- *)

let lint_ast ?file (p : Ast.program) =
  let env = env_of_program ?file p in
  let stmts =
    List.mapi (fun i s -> (i, s, Rw.of_stmt ~vars:env.vars s)) p.Ast.p_stmts
  in
  List.sort D.compare
    (process_pass env p @ knowledge_pass env stmts @ polarity_pass env stmts
    @ hygiene_pass env p stmts @ range_pass env p stmts)

let lint_loaded ?file (ast, spec) =
  let ds = match ast with Some ast -> lint_ast ?file ast | None -> [] in
  match spec with Ok _ -> ds | Error d -> List.sort D.compare (d :: ds)

let lint_source ?file src = lint_loaded ?file (D.load ?file src)

(* The semantic tier rides on the same load: the spec it elaborated is
   handed to {!Semantic.analyse}.  An unsatisfiable initial condition is
   the one semantic finding that cannot survive elaboration (both
   program constructors reject it), so the load's KPT003 for it is
   upgraded to its own KPT103 code. *)
let unsat_init_msg = "unsatisfiable initial condition"

let contains_unsat_init msg =
  let n = String.length unsat_init_msg and l = String.length msg in
  let rec go i = i + n <= l && (String.sub msg i n = unsat_init_msg || go (i + 1)) in
  go 0

let lint_source_semantic ?budget ~file src =
  match D.load ~file src with
  | ast, Error d when d.D.code = "KPT003" && contains_unsat_init d.D.message ->
      lint_loaded ~file
        ( ast,
          Error
            (D.error ~file ?span:d.D.span ~code:"KPT103"
               ~hint:"no state satisfies init: the program has no runs at all"
               (Printf.sprintf "%s (eq. 5: SI = sst.init is the empty predicate)"
                  d.D.message)) )
  | (_, Error _) as loaded -> lint_loaded ~file loaded
  | (_, Ok spec) as loaded ->
      let ds = lint_loaded ~file loaded in
      List.sort D.compare (ds @ Semantic.analyse ~file ?budget spec)

(* ---- JSON (the [kpt lint --json] and [kpt check --json] document) -------- *)

(* One document for both machine formats, so they parse with the same code:
   [Check] passes the per-file stats it computed and gets the extra
   ["stats"] member; [kpt lint] passes none and the member is absent.
   Timings are excluded, so the output is deterministic. *)
let severity_counts diags =
  List.fold_left
    (fun (e, w, i) (d : D.t) ->
      match d.D.severity with
      | D.Error -> (e + 1, w, i)
      | D.Warning -> (e, w + 1, i)
      | D.Info -> (e, w, i + 1))
    (0, 0, 0) diags

let to_json ?stats (reports : (string * D.t list) list) =
  let open Json in
  let counts (e, w, i) = [ ("errors", Int e); ("warnings", Int w); ("infos", Int i) ] in
  let diagnostic (d : D.t) =
    Obj [ ("code", String d.D.code); ("severity", String (D.severity_label d.D.severity));
          ("message", String d.D.message) ]
  in
  let report (file, ds) stats =
    Obj
      ([ ("file", String file);
         ("status", String (if List.exists D.is_error ds then "fail" else "ok"));
         ("findings", Obj (counts (severity_counts ds)));
         ("diagnostics", List (List.map diagnostic ds)) ]
      @ stats)
  in
  let stats_json = Option.fold ~none:Null ~some:(Stats.to_json ~timings:false) in
  let docs =
    match stats with
    | None -> List.map (fun r -> report r []) reports
    | Some ss -> List.map2 (fun r st -> report r [ ("stats", stats_json st) ]) reports ss
  in
  let totals = counts (severity_counts (List.concat_map snd reports)) in
  Obj ((("files", Int (List.length reports)) :: totals) @ [ ("reports", List docs) ])

(* The file-set driver behind [kpt lint].  Rendering and exit policy are
   deliberately decoupled: [--quiet] silences every line of output
   (diagnostics, summaries, the "no findings" note) but the exit code is
   computed from the findings alone — errors always fail, warnings fail
   only under [--warn-error] — so scripts can rely on the code while
   discarding the text.  Lives here (not in bin/) so the flag matrix is
   unit-testable. *)
let run_sources ?jobs ?(semantic = false) ?budget ?(json = false)
    ?(warn_error = false) ?(quiet = false) ppf sources =
  (* findings are computed (possibly on worker domains — [jobs] defaults
     to [Kpt_par.recommended_jobs]) before any rendering, which happens
     here, in input order: output is independent of the pool size *)
  let task (file, src) =
    if semantic then lint_source_semantic ?budget ~file src
    else lint_source ~file src
  in
  let per_file = Kpt_par.map ?jobs task sources in
  if json && not quiet then
    Format.pp_print_string ppf
      (Json.to_pretty (to_json (List.map2 (fun (file, _) ds -> (file, ds)) sources per_file)));
  let all =
    List.concat
      (List.map2
         (fun (_, src) ds ->
           if (not quiet) && not json then
             List.iter
               (fun d -> Format.fprintf ppf "@[<v>%a@]@." (D.pp_excerpt ~src) d)
               ds;
           ds)
         sources per_file)
  in
  if (not quiet) && not json then begin
    match (all, sources) with
    | [], [ (p, _) ] -> Format.fprintf ppf "%s: no findings@." p
    | [], _ -> Format.fprintf ppf "%d files: no findings@." (List.length sources)
    | ds, _ -> Format.fprintf ppf "%s@." (D.summary ds)
  end;
  D.exit_code ~warn_error all

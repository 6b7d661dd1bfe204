module D = Diagnostic

(* The batch driver behind [kpt check FILE...]: per file, run the full
   front-to-back pipeline — load (parse and elaborate, once), lint the
   AST, solve the elaborated spec (SI for standard programs, the
   Ĝ-iteration for KBPs) with a stats snapshot — and render one summary
   line.  Files are independent, so the pool farms them out;
   everything below is written for determinism across pool sizes:

   - [check_source] is pure in the file's content (no shared tables: the
     space owns its BDD manager, and the pool runs every task under a
     fresh [Engine.t], so even the counter snapshot inside [Stats.t] is
     the same at [-j 1] and [-j 8]);
   - workers only {e compute} reports; all rendering happens on the
     calling domain, in input order, and no output mentions the pool
     size.  Hence `kpt check -j 4` is byte-identical to `-j 1`. *)

type report = {
  file : string;
  diags : D.t list;  (* lint findings, including syntax errors *)
  stats : Stats.t option;  (* [None] when the file does not elaborate *)
}

let check_source ?(slice = false) ~file src =
  (* one load feeds both the lint passes and the solver; the AST is
     dropped before solving *)
  let diags, spec =
    let loaded = D.load ~file src in
    (Lint.lint_loaded ~file loaded, snd loaded)
  in
  match spec with
  | Error _ -> { file; diags; stats = None }
  | Ok (sp, kbp) ->
      (* [--slice]: reduce to the cone of influence before solving.  The
         property-less KBP slice is conservative (see {!Slice}), so the
         verdict — and on identity slices the whole report — is the same
         as the unsliced run's. *)
      let kbp = if slice then fst (Slice.kbp kbp) else kbp in
      { file; diags; stats = Some (Stats.collect ~file (sp, kbp)) }

(* Safety net for anything a task throws outside [check_source]: the
   file gets an error report of its own and its siblings are untouched.
   A spec error the solver finds is its {!D.of_exn} diagnostic, and
   budget exhaustion its KPT041, which the exit code maps to the
   documented resource code. *)
let report_of_exn ~file exn =
  let d =
    match D.of_exn ~file exn with
    | Some d -> d
    | None -> D.error ~file ~code:"KPT003" (Printexc.to_string exn)
  in
  { file; diags = [ d ]; stats = None }

let failed r = List.exists D.is_error r.diags

let budget_exhausted r =
  List.exists (fun (d : D.t) -> d.D.code = "KPT041") r.diags

(* ---- rendering -------------------------------------------------------------- *)

let outcome_blurb (t : Stats.t) =
  match t.Stats.outcome with
  | Stats.Standard { reachable; si_nodes = _ } ->
      Printf.sprintf "standard, %d var(s), %s reachable state(s)" t.Stats.variables
        (Kpt_predicate.Bigcount.to_string reachable)
  | Stats.Kbp_converged { steps; states } ->
      Printf.sprintf "kbp, %d var(s), converged in %d step(s) to %s state(s)"
        t.Stats.variables steps (Kpt_predicate.Bigcount.to_string states)
  | Stats.Kbp_cycle { period } ->
      Printf.sprintf "kbp, %d var(s), Ĝ cycles with period %d (not well-posed)"
        t.Stats.variables period

let findings_blurb diags =
  match D.summary diags with "" -> "no findings" | s -> s

let summary_line ppf r =
  let verdict = if failed r then "FAIL" else "ok" in
  match r.stats with
  | Some t ->
      Format.fprintf ppf "%s: %s — %s; %s@." r.file verdict (outcome_blurb t)
        (findings_blurb r.diags)
  | None when budget_exhausted r ->
      Format.fprintf ppf "%s: %s — budget exhausted; %s@." r.file verdict
        (findings_blurb r.diags)
  | None ->
      Format.fprintf ppf "%s: %s — does not elaborate; %s@." r.file verdict
        (findings_blurb r.diags)

let render_text ppf reports =
  List.iter (summary_line ppf) reports;
  let all = List.concat_map (fun r -> r.diags) reports in
  match (all, reports) with
  | _, [] -> Format.fprintf ppf "no files to check@."
  | [], _ -> Format.fprintf ppf "%d file(s): no findings@." (List.length reports)
  | ds, _ -> Format.fprintf ppf "%d file(s): %s@." (List.length reports) (D.summary ds)

(* The JSON shape is [kpt lint --json]'s, from the same builder, plus each
   file's stats. *)
let to_json reports =
  Lint.to_json
    ~stats:(List.map (fun r -> r.stats) reports)
    (List.map (fun r -> (r.file, r.diags)) reports)

(* ---- driver ----------------------------------------------------------------- *)

let reports ?jobs ?budget ?slice sources =
  Kpt_par.try_map ?jobs ?task_budget:budget
    (fun (file, src) -> check_source ?slice ~file src)
    sources
  |> List.map2
       (fun (file, _) -> function Ok r -> r | Error e -> report_of_exn ~file e)
       sources

let run_sources ?jobs ?budget ?slice ?(warn_error = false) ?(quiet = false)
    ?(json = false) ppf sources =
  let rs = reports ?jobs ?budget ?slice sources in
  if not quiet then
    if json then Format.pp_print_string ppf (Json.to_pretty (to_json rs))
    else render_text ppf rs;
  (* budget exhaustion (KPT041) outranks plain findings: exit 3, the
     documented resource code, so scripts can tell "spec is wrong" from
     "budget was too small" *)
  D.exit_code ~warn_error (List.concat_map (fun r -> r.diags) rs)

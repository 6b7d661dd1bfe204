(* Shared command bodies for the CLI and the serve daemon.  See the
   interface for the scoping contract; the rendering code is the former
   [bin/kpt.ml] command bodies verbatim, with [Format.std_formatter] /
   [err_formatter] replaced by buffer-backed formatters so the output
   becomes a value. *)

open Kpt_predicate
open Kpt_unity
open Kpt_core

type options = {
  jobs : int option;
  json : bool;
  warn_error : bool;
  quiet : bool;
  slice : bool;
  semantic : bool;
  timings : bool;
  trace : bool;
  wrt : string list;
  limits : Budget.limits;
  reorder : Engine.reorder_mode;
}

let default_options =
  {
    jobs = None;
    json = false;
    warn_error = false;
    quiet = false;
    slice = false;
    semantic = false;
    timings = false;
    trace = false;
    wrt = [];
    limits = Budget.unlimited;
    reorder = Engine.Reorder_off;
  }

type outcome = { code : int; out : string; err : string }
type sink = string -> (string * int) list -> unit

(* exit-code contract, as documented in the README *)
let exit_resource = 3

(* Run one command body under per-request scoping: fresh engine (reset,
   belt and braces), the requested reorder policy pinned on *that
   engine* — never the process-wide default, which concurrent requests
   on other domains are reading ([Kpt_par.try_map] forwards the caller's
   effective mode to its per-task engines, so batch paths still see it)
   — the trace sink wired to [err] unless the caller supplies its own,
   and the engine's metrics merged into the caller's context on the way
   out.  The budget is *not* armed here: each body arms it via
   [Engine.with_budget] (or the pool's per-task arming) so the deadline
   is relative to the work it bounds. *)
let scoped ?sink opts body =
  let bout = Buffer.create 4096 in
  let berr = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer bout in
  let epf = Format.formatter_of_buffer berr in
  let caller = Engine.current () in
  let eng = Engine.create () in
  Kpt_obs.Ctx.reset (Engine.obs eng);
  (match sink with
  | Some _ -> Kpt_obs.Ctx.set_sink (Engine.obs eng) sink
  | None ->
      if opts.trace then
        Kpt_obs.Ctx.set_sink (Engine.obs eng) (Some (Kpt_obs.trace_sink epf)));
  Engine.set_reorder_mode eng (Some opts.reorder);
  let code =
    Fun.protect
      ~finally:(fun () ->
        Kpt_obs.Ctx.set_sink (Engine.obs eng) None;
        Engine.merge_metrics ~into:caller eng)
      (fun () -> Engine.use eng (fun () -> body ppf epf))
  in
  Format.pp_print_flush ppf ();
  Format.pp_print_flush epf ();
  { code; out = Buffer.contents bout; err = Buffer.contents berr }

let emit_outcome o =
  print_string o.out;
  flush stdout;
  prerr_string o.err;
  flush stderr;
  o.code

(* Load one source through {!Diagnostic.load} and run [f] on the spec.
   [Error d] is the load's diagnostic, or that of a spec error [f]'s
   solver raised (a non-total assignment, say); anything else is a bug
   and propagates. *)
let on_loaded ~file ~src f =
  match snd (Diagnostic.load ~file src) with
  | Error d -> Error d
  | Ok spec -> (
      try Ok (f spec)
      with exn -> (
        match Diagnostic.of_exn ~file exn with Some d -> Error d | None -> raise exn))

let report epf d =
  Format.fprintf epf "%a@." Diagnostic.pp d;
  Diagnostic.exit_code [ d ]

(* Every file-consuming command, direct or served, funnels through here,
   so a failure renders once as [file:line:col: error[KPTnnn]: …]. *)
let with_loaded ~file ~src epf f =
  match on_loaded ~file ~src f with Ok code -> code | Error d -> report epf d

(* Run [f] under [limits]; exhaustion prints one line on [ppf] and
   gives the resource exit code. *)
let budgeted ppf limits f =
  match Engine.with_budget limits f with
  | code -> code
  | exception Budget.Exhausted reason ->
      Format.fprintf ppf "budget exhausted: %s@." (Budget.reason_to_string reason);
      exit_resource

let compile_property sp s =
  try
    Expr.compile_bool sp
      (Kpt_syntax.Elaborate.expr sp (Kpt_syntax.Parser.expr_of_string s))
  with
  | Kpt_syntax.Elaborate.Elab_error (_, msg)
  | Kpt_syntax.Parser.Parse_error (_, msg)
  | Kpt_syntax.Token.Lex_error (_, msg) ->
      failwith (Printf.sprintf "in %S: %s" s msg)
  | Expr.Type_error msg -> failwith (Printf.sprintf "in %S: type error: %s" s msg)

let resolved_program kbp =
  if Kbp.is_standard kbp then Kbp.to_standard_program kbp
  else
    match Kbp.strongest_solution kbp with
    | Some si -> Kbp.instantiate kbp ~si
    | None -> failwith "the KBP has no (unique strongest) solution"
    | exception Kbp.Too_many_candidates { free; cap } ->
        failwith
          (Printf.sprintf "the KBP has %s free candidate states, past the 2^%d solver cap"
             (Bigcount.to_string free) cap)

(* ---- check (batch) -------------------------------------------------------- *)

let check ?sink opts sources =
  scoped ?sink opts @@ fun ppf _epf ->
  Check.run_sources ?jobs:opts.jobs ~budget:opts.limits ~slice:opts.slice
    ~warn_error:opts.warn_error ~quiet:opts.quiet ~json:opts.json ppf sources

(* ---- lint ------------------------------------------------------------------ *)

let lint ?sink opts sources =
  scoped ?sink opts @@ fun ppf _epf ->
  let budget = if Budget.is_unlimited opts.limits then None else Some opts.limits in
  Lint.run_sources ?jobs:opts.jobs ~semantic:opts.semantic ?budget ~json:opts.json
    ~warn_error:opts.warn_error ~quiet:opts.quiet ppf sources

(* ---- stats ----------------------------------------------------------------- *)

let stats_one ~file ~src ~json ~timings ppf epf =
  with_loaded ~file ~src epf @@ fun spec ->
  let st = Stats.collect ~file spec in
  if json then Format.pp_print_string ppf (Json.to_pretty (Stats.to_json ~timings st))
  else Format.fprintf ppf "%a@." Stats.pp st;
  0

(* several files: profiled on the pool (each under its own engine, so
   every profile is the same one a single-file run would print) and
   rendered in input order — as a JSON array under --json *)
let stats_many ~jobs ~json ~timings sources ppf epf =
  let collected =
    Kpt_par.map ?jobs (fun (file, src) -> on_loaded ~file ~src (Stats.collect ~file)) sources
  in
  let code = ref 0 in
  let profiles =
    List.filter_map
      (function
        | Ok st ->
            if not json then Format.fprintf ppf "%a@." Stats.pp st;
            Some st
        | Error d ->
            code := max !code (report epf d);
            None)
      collected
  in
  if json then
    Format.pp_print_string ppf
      (Json.to_pretty (Json.List (List.map (Stats.to_json ~timings) profiles)));
  !code

let stats ?sink opts sources =
  scoped ?sink opts @@ fun ppf epf ->
  match sources with
  | [ (file, src) ] -> stats_one ~file ~src ~json:opts.json ~timings:opts.timings ppf epf
  | sources ->
      stats_many ~jobs:opts.jobs ~json:opts.json ~timings:opts.timings sources ppf epf

(* ---- solve (kpt solve-file) ------------------------------------------------ *)

(* The KBP, its solutions (eq. 25) and the chaotic iteration, each run
   under [limits]; an exhausted budget or the candidate cap degrades to
   one line and exit 3. *)
let render_solutions ppf limits kbp =
  let sp = Kbp.space kbp in
  let pp_pred = Space.pp_pred sp in
  Format.fprintf ppf "%a@.@." Kbp.pp kbp;
  let code = ref 0 in
  (match Engine.with_budget limits (fun () -> Kbp.solutions kbp) with
  | [] ->
      Format.fprintf ppf "No solution: Ĝ(X) = X has no fixpoint (the KBP is not well-posed).@."
  | sols ->
      Format.fprintf ppf "%d solution(s):@." (List.length sols);
      List.iter (fun s -> Format.fprintf ppf "  SI = %a@." pp_pred s) sols
  | exception Budget.Exhausted reason ->
      Format.fprintf ppf "Solution enumeration: budget exhausted (%s).@."
        (Budget.reason_to_string reason);
      code := exit_resource
  | exception Kbp.Too_many_candidates { free; cap } ->
      Format.fprintf ppf
        "Solution enumeration: %a free candidate states exceed the 2^%d cap.@." Bigcount.pp
        free cap;
      code := exit_resource);
  (match Kbp.solve ~budget:limits kbp with
  | Kbp.Converged { si; steps } ->
      Format.fprintf ppf "Chaotic iteration converged in %d step(s) to %a@." steps pp_pred si
  | Kbp.Diverged { orbit; _ } ->
      Format.fprintf ppf "Chaotic iteration diverges: cycle with period %d:@."
        (List.length orbit);
      List.iter (fun s -> Format.fprintf ppf "  → %a@." pp_pred s) orbit
  | Kbp.Budget_exhausted { reason; steps; candidate } ->
      Format.fprintf ppf
        "Chaotic iteration: budget exhausted (%s) after %d step(s); candidate X = %a@."
        (Budget.reason_to_string reason) steps pp_pred candidate;
      code := exit_resource);
  !code

(* [--slice] on solve-file and verify: one line when it dropped anything *)
let report_slice ppf (sliced, info) =
  if not (Slice.is_identity info) then
    Format.fprintf ppf "sliced: dropped %d of %d statement(s) outside the cone@."
      (List.length info.Slice.dropped)
      (List.length info.Slice.kept + List.length info.Slice.dropped);
  sliced

(* [kpt solve MODEL]: a KBP built in the request's engine *)
let solve_model ?sink opts build =
  scoped ?sink opts @@ fun ppf _epf -> render_solutions ppf opts.limits (build ())

let solve ?sink opts sources =
  scoped ?sink opts @@ fun ppf epf ->
  match sources with
  | [] ->
      Format.fprintf epf "error: solve needs a .unity file@.";
      2
  | (file, src) :: _ ->
      with_loaded ~file ~src epf @@ fun (_, kbp) ->
      let kbp = if opts.slice then report_slice ppf (Slice.kbp kbp) else kbp in
      render_solutions ppf opts.limits kbp

(* ---- slice ----------------------------------------------------------------- *)

let slice ?sink opts sources =
  scoped ?sink opts @@ fun ppf epf ->
  match sources with
  | [] ->
      Format.fprintf epf "error: slice needs a .unity file@.";
      2
  | (file, src) :: _ ->
      with_loaded ~file ~src epf @@ fun (sp, kbp) ->
      budgeted ppf opts.limits @@ fun () ->
      try
        let wrt = List.map (compile_property sp) opts.wrt in
        let sliced, info = Slice.kbp ~wrt kbp in
        Format.fprintf ppf "%s: @[<v>%a@]@." (Kbp.name kbp) (Slice.pp_info sp) info;
        if not (Slice.is_identity info) then Format.fprintf ppf "@.%a@." Kbp.pp sliced;
        0
      with Failure msg ->
        Format.fprintf epf "error: %s@." msg;
        1

(* ---- verify ----------------------------------------------------------------- *)

(* "P ; Q" → ("P ", " Q"): compiled as given, printed trimmed *)
let leadsto_pair s =
  match String.index_opt s ';' with
  | None -> failwith "leadsto takes a semicolon-separated pair"
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let verify ?sink opts ~file ~src ~invariants ~stables ~leadstos =
  scoped ?sink opts @@ fun ppf epf ->
  with_loaded ~file ~src epf @@ fun (sp, kbp) ->
  budgeted ppf opts.limits @@ fun () ->
  try
    if not (Kbp.is_standard kbp) then
      Format.fprintf ppf "note: knowledge guards resolved at the strongest solution@.";
    let prog = resolved_program kbp in
    let compile = compile_property sp in
    (* compile every property up front so [--slice] can seed the cone
       with the union of their supports *)
    let cinvs = List.map (fun s -> (s, compile s)) invariants in
    let cstbls = List.map (fun s -> (s, compile s)) stables in
    let cltos =
      List.map
        (fun s ->
          let p, q = leadsto_pair s in
          (String.trim p, String.trim q, compile p, compile q))
        leadstos
    in
    let prog =
      if not opts.slice then prog
      else begin
        let wrt =
          List.map snd cinvs @ List.map snd cstbls
          @ List.concat_map (fun (_, _, p, q) -> [ p; q ]) cltos
        in
        report_slice ppf (Slice.program ~wrt prog)
      end
    in
    let failed = ref 0 in
    let report label ok =
      if not ok then incr failed;
      Format.fprintf ppf "  %-40s %b@." label ok
    in
    List.iter
      (fun (s, p) ->
        report ("invariant " ^ s) (Program.invariant prog p);
        (* a holding invariant that is not inductive gets the KPT106
           weakness note (with the largest inductive strengthening) *)
        match Semantic.invariant_weakness ~file ~label:s prog p with
        | Some (d, _core) -> Format.fprintf ppf "%a@." Diagnostic.pp d
        | None -> ())
      cinvs;
    List.iter (fun (s, p) -> report ("stable " ^ s) (Kpt_logic.Props.stable prog p)) cstbls;
    List.iter
      (fun (p, q, cp, cq) ->
        report (Printf.sprintf "%s ↦ %s" p q) (Kpt_logic.Props.leads_to prog cp cq))
      cltos;
    if !failed = 0 then 0 else 1
  with Failure msg ->
    Format.fprintf epf "error: %s@." msg;
    1

(* ---- check <protocol> -------------------------------------------------------- *)

let with_params epf (b : Kpt_protocols.Builtin.t) ~n ~a f =
  let params = { Kpt_protocols.Seqtrans.n; a } in
  match b.params_error params with
  | Some constraint_ ->
      Format.fprintf epf "error: %s: %s (got --horizon %d --alphabet %d)@." b.label constraint_ n
        a;
      2
  | None -> f params

let check_protocol ?sink opts (b : Kpt_protocols.Builtin.t) ~n ~a ~lossy ~fault =
  let open Kpt_protocols in
  scoped ?sink opts @@ fun ppf epf ->
  let model = Channel.resolve_fault ~lossy fault in
  let no_channel flag =
    Format.fprintf epf "error: %s does not apply to the %s protocol (no channel)@." flag
      b.label;
    2
  in
  match b.build with
  | Builtin.No_channel _ when fault <> None -> no_channel "--fault"
  | Builtin.No_channel _ when lossy -> no_channel "--lossy"
  | build ->
      with_params epf b ~n ~a @@ fun params ->
      budgeted ppf opts.limits @@ fun () ->
      let t = match build with On_channel f -> f model params | No_channel f -> f params in
      let safety = Builtin.safety t in
      let blurb =
        if Kpt_fault.Model.equal model Kpt_fault.Model.lossy then ", lossy"
        else if Kpt_fault.Model.equal model Kpt_fault.Model.duplicating then ""
        else ", fault=" ^ Kpt_fault.Model.to_string model
      in
      Format.fprintf ppf "checking %s (n=%d, |A|=%d%s)@." b.label n a blurb;
      Format.fprintf ppf "  reachable states : %a@." Bigcount.pp
        (Space.count_states_exact (Program.space t.prog) (Program.si t.prog));
      let safe = Program.invariant t.prog safety in
      Format.fprintf ppf "  safety (34)      : %b@." safe;
      let live = ref true in
      for k = 0 to n - 1 do
        let l = Builtin.liveness_holds t ~k in
        if not l then live := false;
        Format.fprintf ppf "  liveness (35)@%d  : %b@." k l
      done;
      if safe && !live then 0 else 1

(* ---- matrix: protocols × fault models ----------------------------------------- *)

let matrix ?sink opts ~faults =
  scoped ?sink opts @@ fun ppf _epf ->
  let module M = Kpt_fault.Matrix in
  let faults =
    match faults with
    | [] -> None
    | ms -> Some (List.map (fun m -> (Kpt_fault.Model.to_string m, m)) ms)
  in
  let m = Resilience.run ~budget:opts.limits ?faults () in
  if opts.json then Format.pp_print_string ppf (Json.to_pretty (M.to_json m))
  else Format.fprintf ppf "%a@." M.pp m;
  let verdicts = List.map (fun (c : M.cell) -> c.M.verdict) m.M.cells in
  if List.exists (function M.Error _ -> true | _ -> false) verdicts then 1
  else if List.exists (function M.Exhausted _ -> true | _ -> false) verdicts then
    exit_resource
  else 0

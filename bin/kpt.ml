(* kpt — command-line driver for the knowledge-predicate-transformer
   library.

     kpt experiments            reproduce every paper artifact (E1-E9)
     kpt solve figure1|figure2  run the KBP solvers on the paper's examples
     kpt check <protocol>       model-check a protocol against the §6 spec
     kpt check FILE … [-j N]    batch-check .unity files in parallel (lint+solve+stats)
     kpt matrix                 re-verify every protocol under every fault model
     kpt simulate               run a concrete fair execution of the standard protocol
     kpt proof kbp|standard     replay the §6 proofs in the LCF kernel
     kpt parse FILE             parse and elaborate a .unity source file
     kpt lint FILE …            run the static-analysis passes on source files
                                (--semantic adds the budgeted KPT1xx tier)
     kpt slice FILE [--wrt P]   cone-of-influence slice of a file's protocol
     kpt verify FILE …          check user-supplied properties of a file
     kpt stats FILE             profile the engine on a file (--json for machines)
     kpt serve                  run the warm-engine verification daemon

   Every verification command is one Driver body, run under the
   Driver's per-request engine scope.  check (file form), lint, stats,
   solve-file and slice run in-process by default; --socket PATH sends
   them to a kpt serve daemon, and --serve-auto uses a daemon when one
   answers, running locally otherwise.  Either way the bytes and the
   exit code are the same.  check <protocol>, solve, verify and matrix
   run in-process only. *)

open Cmdliner
open Kpt_predicate
open Kpt_unity
open Kpt_core
open Kpt_protocols
module Driver = Kpt_analysis.Driver

let fmt = Format.std_formatter

(* ---- shared arguments --------------------------------------------------- *)

let n_arg =
  Arg.(value & opt int 2 & info [ "n"; "horizon" ] ~doc:"Sequence horizon (≥ 2).")

let a_arg =
  Arg.(value & opt int 2 & info [ "a"; "alphabet" ] ~doc:"Alphabet size (≥ 2).")

let lossy_arg =
  Arg.(value & flag & info [ "lossy" ] ~doc:"Include message loss / corruption.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed.")

let steps_arg =
  Arg.(value & opt int 200 & info [ "steps" ] ~doc:"Number of scheduler steps.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Stream fixpoint iterations (sst rounds, Ĝ-iteration steps, gfp sweeps) to \
           standard error as they happen.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for multi-file commands (0 = auto: $(b,KPT_JOBS) or the \
           core count).  Output is byte-identical at every setting.")

let usage_error fmt = Format.kasprintf (fun m -> Format.eprintf "%s@." m; 2) fmt

(* ---- resource budgets and fault models ----------------------------------- *)

(* Exit-code contract (documented in the README):
     0   success          1   a property failed / findings
     2   usage error      3   resource exhaustion (budget, stack, memory)
     130 interrupted (Ctrl-C)                                              *)
let exit_interrupted = 130

let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let timeout_arg =
  Arg.(
    value
    & opt (some pos_float_conv) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget in seconds.  On expiry the command reports what it has \
           (a partial result where the solver supports one) and exits with code 3.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Fixpoint-iteration budget: every sst round, Ĝ-iteration step and \
           gfp sweep consumes one unit.  Deterministic, unlike $(b,--timeout).  \
           Exhaustion exits with code 3.")

let max_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"Ceiling on allocated BDD nodes per manager.  Exhaustion exits with code 3.")

let limits_term =
  let make timeout fuel max_nodes =
    Budget.limits
      ?timeout_ns:(Option.map Budget.timeout_of_seconds timeout)
      ?fuel ?max_nodes ()
  in
  Term.(const make $ timeout_arg $ fuel_arg $ max_nodes_arg)

(* ---- variable-reordering policy ------------------------------------------- *)

let reorder_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("auto", Engine.Reorder_auto); ("off", Engine.Reorder_off) ])
        Engine.Reorder_auto
    & info [ "reorder" ] ~docv:"MODE"
        ~doc:
          "BDD variable-reordering policy: $(b,auto) (sifting fires on node-growth \
           thresholds; the default) or $(b,off) (the declaration order is kept for \
           the whole run).")

let fault_conv =
  let parse s =
    match Kpt_fault.Model.of_string s with
    | Ok m -> Ok m
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Kpt_fault.Model.pp)

let fault_arg =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "fault" ] ~docv:"MODEL"
        ~doc:
          "Channel fault model: a named model (perfect, duplicating, lossy, \
           value-corrupt, crash) or a '+'-joined set of primitives (dup, loss, bot, \
           value, crash).  Overrides $(b,--lossy).")

(* Every user-supplied input is read here: an unreadable path (a
   directory, a permission error) is [error: PATH: msg] and exit 1.
   Open errors already name the path; read errors do not.  A directory
   opens fine and only fails on the read, so it is caught first and
   named as such. *)
let read_source path =
  if Sys.file_exists path && Sys.is_directory path then
    raise (Sys_error (path ^ ": is a directory"));
  try (path, In_channel.with_open_bin path In_channel.input_all)
  with Sys_error msg ->
    let prefix = path ^ ": " in
    raise (Sys_error (if String.starts_with ~prefix msg then msg else prefix ^ msg))

let with_sources paths f =
  match List.map read_source paths with
  | sources -> f sources
  | exception Sys_error msg ->
      Format.eprintf "error: %s@." msg;
      1

(* Load a .unity file and run [f] on the result, through the same
   syntax-error funnel as the Driver-backed commands. *)
let with_loaded path f =
  with_sources [ path ] @@ fun sources ->
  let file, src = List.hd sources in
  Driver.with_loaded ~file ~src Format.err_formatter f

(* ---- the Driver-backed commands: one options term, one transport ---------

   Every verification command is one [Driver] body, run under its
   per-request engine scope.  Every output-affecting flag is declared
   once, as a setter on [Driver.options]; a command's options term
   folds the setters it accepts over [Driver.default_options]. *)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the machine-readable JSON form: one report for the whole batch \
           ($(b,check), $(b,lint)), the engine profile ($(b,stats); add \
           $(b,--timings) for wall-clock spans), or the deterministic matrix \
           ($(b,matrix); what the CI golden pins).")

let warn_error_arg =
  Arg.(value & flag & info [ "warn-error" ] ~doc:"Treat warnings as errors for the exit code.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ]
        ~doc:"Print nothing; communicate through the (unchanged) exit code only.")

let slice_arg =
  Arg.(
    value & flag
    & info [ "slice" ]
        ~doc:
          "Reduce the protocol to its cone of influence first (conservative for \
           knowledge guards; the verdict is preserved).")

let semantic_arg =
  Arg.(
    value & flag
    & info [ "semantic" ]
        ~doc:
          "Add the semantic tier (KPT1xx): elaborate each file and run the \
           reachability-aware passes — unreachable statements, dead guards, \
           unsatisfiable init, deadlock-reachable states, locally implementable \
           knowledge guards — under a small deterministic budget.  Override the \
           default budget (fuel 10000, 1e6 nodes) with $(b,--fuel) / \
           $(b,--max-nodes) / $(b,--timeout).")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ] ~doc:"Include the (nondeterministic) timings_ns section in --json.")

let wrt_arg =
  Arg.(
    value & opt_all string []
    & info [ "wrt" ] ~docv:"EXPR"
        ~doc:
          "Slice with respect to this property (repeatable; the cone is seeded \
           with the union of the properties' variable supports).  Without it the \
           conservative seed is used: everything the protocol can observe, so only \
           write-only sinks are dropped.")

let set arg f = Term.(const (fun v o -> f o v) $ arg)
let reorder_opt = set reorder_arg (fun o reorder -> { o with Driver.reorder })
let limits_opt = set limits_term (fun o limits -> { o with Driver.limits })
let jobs_opt = set jobs_arg (fun o j -> { o with Driver.jobs = (if j > 0 then Some j else None) })
let json_opt = set json_arg (fun o json -> { o with Driver.json })
let warn_error_opt = set warn_error_arg (fun o warn_error -> { o with Driver.warn_error })
let quiet_opt = set quiet_arg (fun o quiet -> { o with Driver.quiet })
let slice_opt = set slice_arg (fun o slice -> { o with Driver.slice })
let semantic_opt = set semantic_arg (fun o semantic -> { o with Driver.semantic })
let timings_opt = set timings_arg (fun o timings -> { o with Driver.timings })
let trace_opt = set trace_arg (fun o trace -> { o with Driver.trace })
let wrt_opt = set wrt_arg (fun o wrt -> { o with Driver.wrt })

let options_term setters =
  List.fold_left
    (fun opts set -> Term.(const (fun o set -> set o) $ opts $ set))
    (Term.const Driver.default_options) setters

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket of the $(b,kpt serve) daemon; on a verification \
           command, giving it sends the request there.  Default: \
           $(b,KPT_SOCKET), or <tmpdir>/kpt-serve-<uid>.sock.")

let resolve_socket = function
  | Some s -> s
  | None -> Kpt_serve.Server.default_socket ()

let serve_auto_arg =
  Arg.(
    value & flag
    & info [ "serve-auto" ]
        ~doc:
          "Send the request to the daemon at $(b,--socket) (or the default \
           socket) when one answers; otherwise run it locally through the same \
           driver — same bytes, same exit code, just cold.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Send the request to the daemon and retry up to N additional times, \
           with decorrelated-jitter backoff — but only on failures where the \
           request demonstrably never ran: a failed connect, a connection closed \
           with no reply, or the daemon's structured $(b,overloaded) shed.  Set \
           $(b,KPT_RETRY_SEED) to replay a schedule deterministically.")

let retry_backoff_arg =
  Arg.(
    value
    & opt pos_float_conv Kpt_serve.Client.default_backoff
    & info [ "retry-backoff" ] ~docv:"SEC"
        ~doc:
          "Base of the retry jitter schedule: each sleep is uniform over \
           [SEC, 3*previous], capped at 5s.")

(* [None] runs the request in-process; [Some send] ships it to a daemon.
   Files are read client-side either way: the daemon sees spec bytes,
   never paths, so its cache is content-addressed. *)
let transport_term =
  let make socket serve_auto retries backoff =
    if socket = None && (not serve_auto) && retries = 0 then None
    else
      Some
        (Kpt_serve.Client.run_cli ~socket:(resolve_socket socket) ~serve_auto ~retries
           ~backoff)
  in
  Term.(const make $ socket_arg $ serve_auto_arg $ retries_arg $ retry_backoff_arg)

(* The in-process run of a Driver body that has no wire form: under
   --trace its events stream to stderr live, as [run_local]'s do. *)
let run_scoped (opts : Driver.options) body =
  let sink = if opts.trace then Some (Kpt_obs.trace_sink Format.err_formatter) else None in
  Driver.emit_outcome (body ?sink opts)

(* The one run function of the Driver-backed commands. *)
let run_driver cmd transport opts paths =
  with_sources paths @@ fun files ->
  let req = { Kpt_serve.Protocol.id = 1; cmd; files; opts } in
  match transport with
  | None -> Kpt_serve.Client.run_local req
  | Some send -> send req

let driver_cmd info cmd setters paths =
  Cmd.v info
    Term.(const (run_driver cmd) $ transport_term $ options_term setters $ paths)

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE" ~doc:"One or more .unity source files.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A .unity source file.")

(* ---- experiments --------------------------------------------------------- *)

let experiments_cmd =
  let run () =
    let verdicts = Kpt_experiments.Experiments.run_all fmt in
    Format.printf "@.Summary:@.";
    List.iter
      (fun (name, ok) ->
        Format.printf "  %-18s %s@." name (if ok then "REPRODUCED" else "MISMATCH"))
      verdicts;
    if List.for_all snd verdicts then 0 else 1
  in
  Cmd.v (Cmd.info "experiments" ~doc:"Reproduce every paper artifact (E1-E9).")
    Term.(const run $ const ())

(* ---- solve --------------------------------------------------------------- *)

let solve_cmd =
  let model =
    Arg.(
      required
      & pos 0 (some (enum [ ("figure1", `Fig1); ("figure2", `Fig2); ("figure2-strong", `Fig2s) ])) None
      & info [] ~docv:"MODEL" ~doc:"figure1, figure2 or figure2-strong.")
  in
  let run model opts =
    run_scoped opts @@ fun ?sink opts ->
    Driver.solve_model ?sink opts (fun () ->
        match model with
        | `Fig1 -> Kpt_experiments.Experiments.figure1 ()
        | `Fig2 -> Kpt_experiments.Experiments.figure2 ~strong:false
        | `Fig2s -> Kpt_experiments.Experiments.figure2 ~strong:true)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a knowledge-based protocol (Figures 1-2).")
    Term.(const run $ model $ options_term [ reorder_opt; trace_opt; limits_opt ])

(* ---- check ---------------------------------------------------------------- *)

let check_cmd =
  let targets_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            (Printf.sprintf
               "Either one built-in protocol (%s) or any number of .unity files."
               (String.concat ", " (List.map (fun b -> b.Builtin.name) Builtin.all))))
  in
  let run targets n a lossy fault transport opts =
    let builtin = match targets with [ name ] -> Builtin.find name | _ -> None in
    match builtin with
    | Some _ when Option.is_some transport ->
        usage_error "error: --socket, --serve-auto and --retries apply to .unity files only"
    | Some b -> Driver.emit_outcome (Driver.check_protocol opts b ~n ~a ~lossy ~fault)
    | None when fault <> None -> usage_error "error: --fault applies to built-in protocols only"
    | None -> run_driver Kpt_serve.Protocol.Check transport opts targets
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check a built-in protocol against the §6 specification (optionally \
          under a $(b,--fault) model and a resource budget), or batch-check .unity \
          files (lint + solve + stats, in parallel with $(b,-j); $(b,--timeout) is a \
          per-file deadline), in-process or through a daemon ($(b,--socket), \
          $(b,--serve-auto)).")
    Term.(
      const run $ targets_arg $ n_arg $ a_arg $ lossy_arg $ fault_arg $ transport_term
      $ options_term
          [
            reorder_opt; jobs_opt; json_opt; slice_opt; warn_error_opt; quiet_opt;
            limits_opt;
          ])

(* ---- simulate -------------------------------------------------------------- *)

(* The built-in entry a standalone command runs, for its parameter
   check. *)
let builtin name = Option.get (Builtin.find name)

let simulate_cmd =
  let run n a lossy seed steps =
    Driver.with_params Format.err_formatter (builtin "standard") ~n ~a @@ fun params ->
    let st = Seqtrans.standard ~lossy params in
    let prog = st.Seqtrans.sprog in
    let sp = st.Seqtrans.sspace in
    let rng = Stdlib.Random.State.make [| seed |] in
    let init = Kpt_runs.Exec.random_init prog rng in
    let trace = Kpt_runs.Exec.run prog ~scheduler:(Kpt_runs.Exec.Random_fair seed) ~steps ~init in
    Format.printf "simulated %d steps of the standard protocol (n=%d, |A|=%d%s, seed %d)@."
      steps n a (if lossy then ", lossy" else "") seed;
    (match
       Kpt_runs.Monitor.first_violation sp (Seqtrans.spec_safety st) trace
     with
    | None -> Format.printf "  safety (34) held along the whole trace@."
    | Some i -> Format.printf "  SAFETY VIOLATED at step %d!@." i);
    let done_p = Expr.compile_bool sp Expr.(var st.Seqtrans.j === nat n) in
    (match Kpt_runs.Monitor.eventually sp done_p trace with
    | Some i -> Format.printf "  transmission complete after %d steps@." i
    | None ->
        let final = Kpt_runs.Exec.final trace in
        Format.printf "  incomplete: delivered %d/%d elements@."
          final.(Space.idx st.Seqtrans.j) n);
    Format.printf "  statement counts: %s@."
      (String.concat ", "
         (List.map
            (fun (s, c) -> Printf.sprintf "%s×%d" s c)
            (Kpt_runs.Exec.statement_counts trace)));
    0
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a concrete fair execution of the standard protocol.")
    Term.(const run $ n_arg $ a_arg $ lossy_arg $ seed_arg $ steps_arg)

(* ---- proof ------------------------------------------------------------------ *)

let proof_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("kbp", `Kbp); ("standard", `Std) ])) None
      & info [] ~docv:"WHICH" ~doc:"kbp (Figure 3) or standard (Figure 4).")
  in
  let tree =
    Arg.(value & flag & info [ "tree" ] ~doc:"Print the full derivation tree of each liveness theorem.")
  in
  let run which n a lossy tree =
    let name = match which with `Kbp -> "kbp" | `Std -> "standard" in
    Driver.with_params Format.err_formatter (builtin name) ~n ~a @@ fun params ->
    let thms =
      match which with
      | `Kbp -> Seqtrans_proofs.replay_abstract (Seqtrans.abstract_kbp params)
      | `Std ->
          Seqtrans_proofs.replay_standard ~assume_channel:lossy
            (Seqtrans.standard ~lossy params)
    in
    Format.printf "replayed %d theorems:@." (List.length thms);
    List.iter
      (fun (name, t) ->
        let assumps = Kpt_logic.Proof.assumptions t in
        Format.printf "  %-22s %s  (%d rule applications)@." name
          (if assumps = [] then "⊢ (from the program text)"
           else "⊢ assuming " ^ String.concat ", " assumps)
          (Kpt_logic.Proof.derivation_size t);
        if tree && String.length name >= 8 && String.sub name 0 8 = "liveness" then begin
          Format.printf "@.derivation of %s:@." name;
          Kpt_logic.Proof.pp_derivation Format.std_formatter t;
          Format.printf "@."
        end)
      thms;
    0
  in
  Cmd.v
    (Cmd.info "proof" ~doc:"Replay the §6 correctness proofs in the LCF kernel.")
    Term.(const run $ which $ n_arg $ a_arg $ lossy_arg $ tree)

(* ---- parse / verify: the concrete syntax front end -------------------------- *)

let parse_cmd =
  let run path =
    with_loaded path @@ fun (sp, kbp) ->
    Format.printf "%a@.@." Kbp.pp kbp;
    Format.printf "state space : %a states over %d variables@." Bigcount.pp
      (Space.state_count_exact sp)
      (List.length (Space.vars sp));
    if Kbp.is_standard kbp then begin
      let prog = Kbp.to_standard_program kbp in
      Format.printf "standard program; reachable states: %a@." Bigcount.pp
        (Space.count_states_exact sp (Program.si prog))
    end
    else Format.printf "knowledge-based protocol (use 'kpt solve %s')@." path;
    0
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and elaborate a .unity source file.")
    Term.(const run $ file_arg)

(* ---- lint -------------------------------------------------------------------- *)

let lint_cmd =
  driver_cmd
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes (locality, K-polarity, hygiene, \
          interference) on .unity source files; $(b,--semantic) adds the budgeted \
          reachability-aware KPT1xx tier.")
    Kpt_serve.Protocol.Lint
    [ reorder_opt; warn_error_opt; quiet_opt; jobs_opt; semantic_opt; json_opt; limits_opt ]
    files_arg

let one_file = Term.(const (fun path -> [ path ]) $ file_arg)

let solve_file_cmd =
  driver_cmd
    (Cmd.info "solve-file" ~doc:"Solve the knowledge-based protocol in a .unity file.")
    Kpt_serve.Protocol.Solve
    [ reorder_opt; slice_opt; trace_opt; limits_opt ]
    one_file

(* ---- slice: cone-of-influence reduction as a transformation ------------------ *)

let slice_cmd =
  driver_cmd
    (Cmd.info "slice"
       ~doc:
         "Compute the cone-of-influence slice of a .unity protocol: which statements \
          can influence the property given with $(b,--wrt) (or anything the protocol \
          observes, without it).  Prints the cone, the kept/dropped statement names \
          and — when the slice is not the identity — the sliced protocol.")
    Kpt_serve.Protocol.Slice
    [ reorder_opt; wrt_opt; limits_opt ]
    one_file

let verify_cmd =
  let invariants =
    Arg.(value & opt_all string [] & info [ "invariant" ] ~docv:"EXPR" ~doc:"Check invariant EXPR.")
  in
  let stables =
    Arg.(value & opt_all string [] & info [ "stable" ] ~docv:"EXPR" ~doc:"Check stable EXPR.")
  in
  let leadstos =
    Arg.(
      value & opt_all string []
      & info [ "leadsto" ] ~docv:"P;Q" ~doc:"Check P leads-to Q (separate with a semicolon).")
  in
  let run path invariants stables leadstos opts =
    with_sources [ path ] @@ fun sources ->
    let file, src = List.hd sources in
    run_scoped opts @@ fun ?sink opts ->
    Driver.verify ?sink opts ~file ~src ~invariants ~stables ~leadstos
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check user-supplied UNITY properties of a .unity file, optionally under a \
          resource budget ($(b,--timeout), $(b,--fuel), $(b,--max-nodes)) and after a \
          property-directed cone-of-influence reduction ($(b,--slice)).")
    Term.(
      const run $ file_arg $ invariants $ stables $ leadstos
      $ options_term [ reorder_opt; slice_opt; trace_opt; limits_opt ])

(* ---- stats: the engine profile of a single file ------------------------------ *)

let stats_cmd =
  driver_cmd
    (Cmd.info "stats"
       ~doc:
         "Profile the engine on .unity files: op-cache hit rate, node counts, fixpoint \
          iteration depths and exact state-space size.  Several files are profiled in \
          parallel with $(b,-j).")
    Kpt_serve.Protocol.Stats
    [ reorder_opt; json_opt; timings_opt; jobs_opt ]
    files_arg

(* ---- matrix: protocols × fault models ---------------------------------------- *)

let matrix_cmd =
  let faults_arg =
    Arg.(
      value
      & opt_all fault_conv []
      & info [ "fault" ] ~docv:"MODEL"
          ~doc:
            "Restrict the columns to MODEL (repeatable).  Default: perfect, lossy, \
             value-corrupt, crash.")
  in
  let run faults opts = Driver.emit_outcome (Driver.matrix opts ~faults) in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Re-verify every bundled protocol under every fault model and print the \
          resilience matrix (which property survives which fault).  The per-cell \
          budget ($(b,--timeout), $(b,--fuel)) degrades a pathological cell to \
          'exhausted' without losing the rest; any exhausted cell exits with code 3, \
          any errored cell with 1.")
    Term.(const run $ faults_arg $ options_term [ reorder_opt; json_opt; limits_opt ])

(* ---- knowledge queries on .unity files -------------------------------------- *)

let knowledge_cmd =
  let process_arg =
    Arg.(required & opt (some string) None & info [ "process" ] ~docv:"P" ~doc:"Process name.")
  in
  let fact_arg =
    Arg.(required & opt (some string) None & info [ "fact" ] ~docv:"EXPR" ~doc:"The fact φ.")
  in
  let common_arg =
    Arg.(
      value & opt (some string) None
      & info [ "common" ] ~docv:"P1,P2" ~doc:"Also compute common knowledge for this group.")
  in
  let run path pname fact common =
    with_loaded path @@ fun (sp, kbp) ->
    try
      let prog = Driver.resolved_program kbp in
      let p = Driver.compile_property sp fact in
      let m = Space.manager sp in
      let si = Program.si prog in
      let k = Knowledge.knows_in prog pname p in
      let show label pred =
        let inside = Bdd.and_ m si pred in
        let count = Space.count_states_exact sp inside in
        let total = Space.count_states_exact sp si in
        Format.printf "  %-28s %a of %a reachable states@." label Bigcount.pp count Bigcount.pp
          total;
        if match Bigcount.to_int count with Some c -> c > 0 && c <= 8 | None -> false then
          Format.printf "    %a@." (Space.pp_pred sp) inside
      in
      Format.printf "program %s, fact: %s@." (Program.name prog) fact;
      show "fact holds at" p;
      show (Printf.sprintf "K_%s(fact) holds at" pname) k;
      (match common with
      | None -> ()
      | Some group ->
          let names = String.split_on_char ',' group |> List.map String.trim in
          let procs = List.map (Program.find_process prog) names in
          let c = Knowledge.common_knowledge sp ~si procs p in
          let e = Knowledge.everyone_knows sp ~si procs p in
          show (Printf.sprintf "E_{%s}(fact) holds at" group) e;
          show (Printf.sprintf "C_{%s}(fact) holds at" group) c);
      0
    with
    | Failure msg ->
        Format.eprintf "error: %s@." msg;
        1
    | Not_found ->
        Format.eprintf "error: unknown process@.";
        1
  in
  Cmd.v
    (Cmd.info "knowledge" ~doc:"Query the knowledge predicate K_P(φ) on a .unity program.")
    Term.(const run $ file_arg $ process_arg $ fact_arg $ common_arg)

(* ---- serve / client: the warm-engine daemon ---------------------------------- *)

let serve_cmd =
  let cache_size_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-size" ] ~docv:"N"
          ~doc:
            "Result-cache capacity in entries (LRU eviction; 0 disables the cache).  \
             Keys are content hashes of (spec bytes, options, engine policy), so an \
             edited file or a changed flag always misses.")
  in
  let serve_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "serve-jobs" ] ~docv:"N"
          ~doc:
            "Workers serving requests concurrently: N domains in total; the \
             accept loop is a thread of worker 0's domain.  Served bytes are \
             identical at any width — each request runs under its own engine \
             scope; only throughput changes.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded request-queue capacity.  When every worker is busy and the \
             queue is full, new connections are shed immediately with a \
             structured $(b,overloaded) error frame (exit 75) instead of piling \
             up in the listen backlog.")
  in
  let request_timeout_arg =
    Arg.(
      value
      & opt (some pos_float_conv) None
      & info [ "request-timeout" ] ~docv:"SEC"
          ~doc:
            "Per-request deadline: caps the verification budget (expiry surfaces \
             as the usual exit 3) and arms a socket-level read/write deadline, so \
             a slow-loris client is disconnected with an exit-4 error frame \
             rather than holding a worker forever.")
  in
  let run socket cache_size jobs queue request_timeout =
    Kpt_serve.Server.run
      (Kpt_serve.Server.config ~jobs ~queue_capacity:queue ?request_timeout
         ~socket_path:(resolve_socket socket) ~cache_size ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon: a Unix-domain-socket server that answers \
          check/lint/stats/solve-file/slice requests (sent with $(b,--socket) or \
          $(b,--serve-auto)) against the \
          warm in-process engine pool, with a content-addressed LRU result cache \
          shared by $(b,--serve-jobs) workers behind a bounded queue.  \
          Responses are byte-identical to the direct commands.  SIGINT/SIGTERM \
          drain: accepting stops, queued clients get structured exit-130 frames, \
          in-flight requests finish, the socket is removed, and the daemon exits \
          130; a $(b,shutdown) request exits 0.")
    Term.(
      const run $ socket_arg $ cache_size_arg $ serve_jobs_arg $ queue_arg
      $ request_timeout_arg)

let client_cmd =
  let control cmd socket =
    Kpt_serve.Client.run_cli ~socket:(resolve_socket socket) ~serve_auto:false
      { Kpt_serve.Protocol.id = 1; cmd; files = []; opts = Driver.default_options }
  in
  let sub name ~doc cmd = Cmd.v (Cmd.info name ~doc) Term.(const (control cmd) $ socket_arg) in
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Control a running $(b,kpt serve) daemon over its Unix socket.  (The \
          verification commands reach a daemon themselves: $(b,kpt check --socket \
          PATH FILE...), likewise lint, stats, solve-file and slice.)")
    [
      sub "ping" Kpt_serve.Protocol.Ping
        ~doc:
          "Check the daemon is alive and print its counters (requests served, \
           cache entries/hits/misses/evictions, pool size).";
      sub "shutdown" Kpt_serve.Protocol.Shutdown
        ~doc:"Ask the daemon to exit cleanly (it removes its socket).";
    ]

(* ---- gen: the seeded corpus generator ------------------------------------- *)


(* parse a comma-separated axis with a per-element parser, reporting the
   first offender by name *)
let parse_axis ~what of_string xs =
  List.fold_left
    (fun acc x ->
      match (acc, of_string x) with
      | Error _, _ -> acc
      | Ok _, None -> Error (Printf.sprintf "bad %s %S" what x)
      | Ok ys, Some y -> Ok (ys @ [ y ]))
    (Ok []) xs

let gen_seed_env = "KPT_GEN_SEED"

let gen_flag_summary (c : Kpt_gen.Gen.config) =
  Printf.sprintf "--families %s --sizes %s --faults %s --budgets %s --count %d --seed %s"
    (String.concat "," c.families)
    (String.concat "," (List.map string_of_int c.sizes))
    (String.concat "," (List.map Kpt_gen.Gen.fault_to_string c.faults))
    (String.concat "," (List.map Kpt_gen.Gen.budget_to_string c.budgets))
    c.count
    (Kpt_gen.Rng.seed_to_string c.seed)

let gen_cmd =
  let families_arg =
    Arg.(
      value
      & opt (list string) Kpt_gen.Family.names
      & info [ "families" ] ~docv:"NAME,.."
          ~doc:
            (Printf.sprintf "Protocol families to draw from (default: all of %s)."
               (String.concat ", " Kpt_gen.Family.names)))
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) Kpt_gen.Gen.default_config.sizes
      & info [ "sizes" ] ~docv:"N,.."
          ~doc:"Instance sizes (stations, hops, digits …); clamped up to each \
                family's minimum.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (list string) [ "none"; "loss"; "stutter" ]
      & info [ "faults" ] ~docv:"F,.."
          ~doc:
            "Fault models: $(b,none), $(b,loss) (lossy channel; skipped for \
             channel-free families), $(b,stutter) (a no-op self-assignment the \
             hygiene lint flags).")
  in
  let budgets_arg =
    Arg.(
      value
      & opt (list string) [ "none"; "fuel:8" ]
      & info [ "budgets" ] ~docv:"B,.."
          ~doc:
            "Budget classes: $(b,none) (the generous deterministic envelope) or \
             $(b,fuel:N) (tight fuel — expected exhaustion is recorded in the \
             manifest).")
  in
  let count_arg =
    Arg.(value & opt int 1000 & info [ "count" ] ~docv:"N" ~doc:"Number of instances.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed" ] ~docv:"S"
          ~doc:
            (Printf.sprintf
               "Corpus seed (decimal or hex).  Defaults to \\$%s, then 1.  Same \
                flags + same seed = byte-identical corpus."
               gen_seed_env))
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory (created if missing).")
  in
  let run families sizes faults budgets count seed_opt out =
    let seed_str =
      match (seed_opt, Sys.getenv_opt gen_seed_env) with
      | Some s, _ -> s
      | None, Some s -> s
      | None, None -> "1"
    in
    match Kpt_gen.Rng.seed_of_string seed_str with
    | None -> usage_error "kpt gen: bad seed %S (decimal or hex)" seed_str
    | Some seed -> (
        match
          ( parse_axis ~what:"fault" Kpt_gen.Gen.fault_of_string faults,
            parse_axis ~what:"budget" Kpt_gen.Gen.budget_of_string budgets )
        with
        | Error m, _ | _, Error m -> usage_error "kpt gen: %s" m
        | Ok faults, Ok budgets -> (
            let config =
              { Kpt_gen.Gen.families; sizes; faults; budgets; count; seed }
            in
            try
              let instances = Kpt_gen.Gen.write_corpus ~dir:out config in
              let tally key =
                List.length
                  (List.filter
                     (fun i -> i.Kpt_gen.Gen.expected.Kpt_gen.Gen.klass = key)
                     instances)
              in
              Format.printf "wrote %d spec(s) + manifest.json to %s@."
                (List.length instances) out;
              Format.printf "  %s@." (gen_flag_summary config);
              Format.printf
                "  classes: standard %d, kbp_converged %d, kbp_cycle %d, exhausted \
                 %d, error %d@."
                (tally "standard") (tally "kbp_converged") (tally "kbp_cycle")
                (tally "exhausted") (tally "error");
              0
            with
            | Kpt_gen.Gen.Bad_config m -> usage_error "kpt gen: %s" m
            | Sys_error m ->
                Format.eprintf "kpt gen: %s@." m;
                1))
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a seeded, deterministic corpus of .unity specs over (family × \
          size × fault × budget), with a manifest.json recording each instance's \
          expected envelope (diagnostic codes, outcome class, exit code).  \
          Instance $(i,i) draws only from the position-addressed stream \
          $(i,derive seed i), so the corpus is reproducible at any count on any \
          machine.")
    Term.(
      const run $ families_arg $ sizes_arg $ faults_arg $ budgets_arg $ count_arg
      $ seed_arg $ out_arg)

(* ---- difftest: every pipeline must agree ---------------------------------- *)

let difftest_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"A corpus directory written by $(b,kpt gen).")
  in
  let limit_arg =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Only the first N instances (0 = all) — the CI smoke slice.")
  in
  let report_arg =
    Arg.(
      value
      & opt ~vopt:(Some "CORPUS_RESULTS.json") (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Aggregate the run into the analysis document (outcome distributions, \
             pass rate, time-vs-size fits, budget-exhaustion rates) and write it \
             to FILE (default CORPUS_RESULTS.json).")
  in
  let no_serve_arg =
    Arg.(
      value & flag
      & info [ "no-serve" ]
          ~doc:
            "Skip the in-process serve-daemon and result-cache paths (they are \
             byte-compared against the direct path by default).")
  in
  let run dir limit report no_serve =
    match Kpt_gen.Gen.read_manifest dir with
    | exception Kpt_gen.Gen.Bad_manifest m -> usage_error "kpt difftest: %s" m
    | config, instances -> (
        let instances =
          if limit > 0 then List.filteri (fun i _ -> i < limit) instances else instances
        in
        (* the serve path: the same Driver behind the wire codec and the
           daemon's result cache, in-process; and the cache path: a warm
           second request that must be byte-identical *)
        let handler = lazy (Kpt_serve.Handler.create ~cache_size:64) in
        let serve_request ~limits ~file ~source =
          let req =
            {
              Kpt_serve.Protocol.id = 0;
              cmd = Kpt_serve.Protocol.Check;
              files = [ (file, source) ];
              opts =
                {
                  Driver.default_options with
                  jobs = Some 1;
                  limits;
                  reorder = Engine.Reorder_off;
                };
            }
          in
          (* exercise the wire codec too: every request round-trips
             through its JSON encoding before it is handled *)
          match
            Kpt_serve.Protocol.request_of_json
              (Json.of_string (Json.to_string (Kpt_serve.Protocol.request_to_json req)))
          with
          | Ok req -> req
          | Error m -> failwith ("difftest: protocol round-trip failed: " ^ m)
        in
        let extra_paths =
          if no_serve then []
          else
            [
              {
                Kpt_analysis.Difftest.path_name = "serve";
                run =
                  (fun ~limits ~file ~source ->
                    fst
                      (Kpt_serve.Handler.handle (Lazy.force handler)
                         (serve_request ~limits ~file ~source)));
              };
              {
                Kpt_analysis.Difftest.path_name = "serve-cached";
                run =
                  (fun ~limits ~file ~source ->
                    let req = serve_request ~limits ~file ~source in
                    ignore (Kpt_serve.Handler.handle (Lazy.force handler) req);
                    fst (Kpt_serve.Handler.handle (Lazy.force handler) req));
              };
            ]
        in
        let missing = ref [] in
        let rows =
          List.filter_map
            (fun (inst : Kpt_gen.Gen.instance) ->
              let path = Filename.concat dir inst.filename in
              match In_channel.with_open_bin path In_channel.input_all with
              | exception Sys_error _ ->
                  missing := inst.filename :: !missing;
                  None
              | source ->
                  let limits = Kpt_gen.Gen.limits_of_budget inst.budget in
                  let t0 = Kpt_obs.now_ns () in
                  let result =
                    Kpt_analysis.Difftest.run_spec ~extra_paths ~expected:inst.expected
                      ~seed:(Int64.add config.seed (Int64.of_int inst.id))
                      ~limits ~file:inst.filename ~source ()
                  in
                  let ns = Int64.sub (Kpt_obs.now_ns ()) t0 in
                  Some
                    {
                      Kpt_analysis.Difftest.o_family = inst.family;
                      o_size = inst.size;
                      o_fault = Kpt_gen.Gen.fault_to_string inst.fault;
                      o_budget = Kpt_gen.Gen.budget_to_string inst.budget;
                      o_ns = ns;
                      o_result = result;
                    })
            instances
        in
        match !missing with
        | f :: _ as fs ->
            usage_error "kpt difftest: %d corpus file(s) missing (e.g. %s) — regenerate \
                         with: kpt gen %s -o %s"
              (List.length fs) f (gen_flag_summary config) dir
        | [] ->
            let results = List.map (fun o -> o.Kpt_analysis.Difftest.o_result) rows in
            let comparisons =
              List.fold_left
                (fun a r -> a + r.Kpt_analysis.Difftest.r_comparisons)
                0 results
            in
            let disagreements =
              List.concat_map (fun r -> r.Kpt_analysis.Difftest.r_disagreements) results
            in
            List.iter
              (fun (d : Kpt_analysis.Difftest.disagreement) ->
                Format.printf "DISAGREEMENT %s: %s@.  %s@." d.d_check d.d_file d.d_detail;
                (match d.d_shrunk with
                | None -> ()
                | Some src -> Format.printf "  shrunk reproducer:@.%s@." src);
                Format.printf "  replay: %s=%s kpt gen %s -o DIR && kpt difftest DIR@."
                  gen_seed_env
                  (Kpt_gen.Rng.seed_to_string config.seed)
                  (gen_flag_summary config))
              disagreements;
            (match report with
            | None -> ()
            | Some file ->
                let doc =
                  Kpt_analysis.Difftest.report_json
                    ~seed:(Kpt_gen.Rng.seed_to_string config.seed)
                    ~paths:(Kpt_analysis.Difftest.path_names ~extra_paths)
                    rows
                in
                let oc = open_out_bin file in
                output_string oc (Json.to_string doc ^ "\n");
                close_out oc;
                Format.printf "wrote %s@." file);
            Format.printf "difftest: %d spec(s), %d comparison(s), %d disagreement(s)@."
              (List.length rows) comparisons (List.length disagreements);
            if disagreements = [] then 0 else 1)
  in
  Cmd.v
    (Cmd.info "difftest"
       ~doc:
         "Run every spec of a generated corpus through pipeline pairs that must \
          agree — $(b,-j1) vs $(b,-j3), $(b,--reorder off) vs $(b,auto), direct vs \
          the in-process serve daemon, cold vs cached — byte-for-byte, plus \
          verdict-preserving transforms (slice, variable renaming, statement \
          permutation) and the manifest's expected envelope.  Disagreements are \
          shrunk by statement removal and reported as replayable KPT_GEN_SEED \
          cases.  Exit 1 on any disagreement.")
    Term.(const run $ dir_arg $ limit_arg $ report_arg $ no_serve_arg)

(* ---- chaos: fault-inject a real daemon process ---------------------------- *)

let chaos_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"A corpus directory written by $(b,kpt gen).")
  in
  let specs_arg =
    Arg.(
      value & opt int 50
      & info [ "specs" ] ~docv:"N"
          ~doc:"Replay the first N specs (sorted by filename) through each fault.")
  in
  let seed_arg =
    Arg.(
      value & opt string "1"
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Adversary seed (decimal or hex): drives truncation points, garbage \
             shapes and chunk sizes.  Same corpus + same seed = same fault \
             schedule.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Socket for the spawned daemon (default: a fresh \
             kpt-chaos-$(i,pid).sock under \\$TMPDIR, so sweeps never collide \
             with a real daemon).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 2
      & info [ "serve-jobs" ] ~docv:"N"
          ~doc:
            "Workers of the spawned daemon: N domains in total; the accept \
             loop is a thread of worker 0's domain.")
  in
  let queue_arg =
    Arg.(
      value & opt int 4
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Daemon queue capacity — kept small so the flood fault overflows it \
             quickly.")
  in
  let request_timeout_arg =
    Arg.(
      value
      & opt pos_float_conv 0.5
      & info [ "request-timeout" ] ~docv:"SEC"
          ~doc:
            "Daemon per-request deadline — kept short so the slow-loris fault \
             resolves quickly.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "faults" ] ~docv:"F,.."
          ~doc:
            (Printf.sprintf "Fault kinds to inject (default: all of %s)."
               (String.concat ", "
                  (List.map Kpt_serve.Chaos.fault_name Kpt_serve.Chaos.all_faults))))
  in
  let run dir specs seed_str socket jobs queue request_timeout faults =
    match Kpt_gen.Rng.seed_of_string seed_str with
    | None -> usage_error "kpt chaos: bad seed %S (decimal or hex)" seed_str
    | Some seed -> (
        match
          match faults with
          | None -> Ok Kpt_serve.Chaos.all_faults
          | Some names ->
              parse_axis ~what:"fault" Kpt_serve.Chaos.fault_of_name names
        with
        | Error m -> usage_error "kpt chaos: %s" m
        | Ok faults ->
            let socket =
              match socket with
              | Some s -> s
              | None ->
                  Filename.concat
                    (Filename.get_temp_dir_name ())
                    (Printf.sprintf "kpt-chaos-%d.sock" (Unix.getpid ()))
            in
            Kpt_serve.Chaos.run Format.std_formatter
              {
                Kpt_serve.Chaos.exe = Sys.executable_name;
                dir;
                specs;
                seed;
                socket;
                jobs;
                queue;
                request_timeout;
                faults;
              })
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Spawn a $(b,kpt serve) daemon and attack it: replay a generated-corpus \
          slice through injected transport faults — truncated frames, garbage, \
          dribbled writes, mid-request disconnects, slow-loris, queue floods, \
          SIGKILL, SIGTERM drain — asserting the daemon never crashes or wedges, \
          every surviving client gets a byte-identical result or a structured \
          error frame, and the socket is always reclaimed.  Exit 1 on any \
          violation.")
    Term.(
      const run $ dir_arg $ specs_arg $ seed_arg $ socket_arg $ jobs_arg
      $ queue_arg $ request_timeout_arg $ faults_arg)

(* The CLI's robustness boundary.  [catch_break] turns Ctrl-C into
   [Sys.Break], which the pool drains cooperatively and we render as a
   partial-progress summary (exit 130, the conventional SIGINT code).
   Resource crashes the budgets did not preempt — a blown OCaml stack or
   the allocator giving up — are rendered as one diagnostic pointing at
   the budget flags (exit 3), never a raw backtrace.  [~catch:false]
   keeps cmdliner from eating these exceptions first. *)
let () =
  Sys.catch_break true;
  let doc = "knowledge predicate transformers and knowledge-based protocols" in
  let info = Cmd.info "kpt" ~version:"1.0.0" ~doc in
  let resource_diag msg =
    Format.eprintf "%a@." Kpt_analysis.Diagnostic.pp
      (Kpt_analysis.Diagnostic.error ~code:"KPT040"
         ~hint:
           "bound the search: --fuel N caps fixpoint iterations, --max-nodes N caps \
            BDD allocation, --timeout SEC caps wall clock"
         msg)
  in
  let code =
    try
      Cmd.eval' ~catch:false
        (Cmd.group info
           [
             experiments_cmd; solve_cmd; check_cmd; simulate_cmd; proof_cmd; parse_cmd;
             lint_cmd; slice_cmd; solve_file_cmd; verify_cmd; knowledge_cmd; stats_cmd;
             matrix_cmd; serve_cmd; client_cmd; gen_cmd; difftest_cmd; chaos_cmd;
           ])
    with
    | Sys.Break ->
        let completed, total = Kpt_par.progress () in
        if total > 0 then
          Format.eprintf "@.interrupted: %d of %d batch task(s) had completed@."
            completed total
        else Format.eprintf "@.interrupted@.";
        exit_interrupted
    | Stack_overflow ->
        resource_diag
          "the solver overflowed the OCaml stack (fixpoint or BDD recursion too deep \
           for this spec)";
        Driver.exit_resource
    | Out_of_memory ->
        resource_diag "the solver exhausted memory (the BDD outgrew this machine)";
        Driver.exit_resource
    | Budget.Exhausted reason ->
        (* belt and braces: every budgeted command catches this itself *)
        Format.eprintf "error[KPT041]: resource budget exhausted: %s@."
          (Budget.reason_to_string reason);
        Driver.exit_resource
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        Format.eprintf "kpt: internal error, uncaught exception:@.%s@.%s@."
          (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error
  in
  exit code

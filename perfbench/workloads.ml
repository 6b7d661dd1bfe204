(* The four workloads.  Each one is a set of inputs made from the seed
   and a closed loop with one caller that pushes them through kpt's
   public entry points; the program under test sees only the generated
   inputs.  See README.md for why each workload exists. *)

open Kpt_predicate
open Kpt_analysis
open Kpt_serve
open Kpt_syntax
module Gen = Kpt_gen.Gen
module Rng = Kpt_gen.Rng

type spec = {
  seed : int;
  toy : bool;  (* the smoke-test sizes *)
  doctored : bool;  (* one expected verdict made wrong, for the self-test *)
  kpt : string;  (* the kpt executable the serve workloads start *)
  out : string;  (* where the daemon's socket lives *)
}

(* Times are scaled to the reference speed ({!Calib}) unless raw. *)
type pass = {
  lat_ns : float array;  (* one latency per input *)
  fails : int;
  wall_ns : float;
  raw_wall_ns : float;
  cal_ns : float array;  (* the calibration times taken during the pass *)
  notes : string list;  (* why inputs failed, or why the bench distrusts itself *)
}

type serve = {
  daemon_cpu_ns : unit -> float;
  replay : unit -> float * int * (string * int) list;
      (* answer the request stream of one timed pass in-process with
         Handler.handle, after the warm-up stream: total handler ns
         (scaled), requests, and the engine counters the pass moved *)
}

type instance = {
  pass : int -> pass;
      (* pass 0 is the warm-up; [Trace.on] says whether the pass is traced *)
  work : unit -> (string * int) list;
      (* cumulative counters that must move by the same amount in every pass *)
  peak_rss_mb : unit -> float;  (* of the process doing the verifying *)
  gen_s : float * float;  (* seconds of this set-up spent generating inputs: raw, scaled *)
  serve : serve option;
  close : unit -> unit;
}

type t = {
  name : string;
  tail_q : float option;
      (* the per-pass percentile behind latency_tail_ms; [None] = the
         slowest input.  p99 leaves at least ten inputs beyond it in every
         pass; serve-hot could go to p99.95, but there the tail moves by
         a tenth from run to run with the host's scheduling *)
  setup : spec -> instance;
}

let now () = Int64.to_float (Kpt_obs.now_ns ())

(* Counters that do not repeat from pass to pass, so they are left out
   of the work vector: the peak is a high-water mark over the process,
   not a per-pass amount. *)
let work_excluded = [ "bdd.nodes.peak" ]

let engine_work () =
  List.filter (fun (n, _) -> not (List.mem n work_excluded)) (Kpt_obs.counters ())

let diff after before =
  List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before))) after

let self_rss () = Proc.peak_rss_mb "self"

let note_limit = 10

(* Time every input of a pass, calibrated ({!Calib.timed}).  [f x s]
   does step [s] of [steps] of input [x] and returns the check of its
   answer, which runs untimed and gives an error note when the answer is
   wrong.  An input's latency is the sum of its steps: splitting long
   inputs lets calibration samples fall between their parts too. *)
let timed_pass ?daemon ?(steps = 1) inputs f =
  let n = Array.length inputs in
  let fails = ref 0 and notes = ref [] in
  let t =
    Calib.timed ?daemon (n * steps) (fun j ->
        Trace.input := j / steps;
        let t0 = now () in
        let verdict = f inputs.(j / steps) (j mod steps) in
        let dt = now () -. t0 in
        (match verdict () with
        | None -> ()
        | Some note ->
            incr fails;
            if List.length !notes < note_limit then notes := note :: !notes);
        dt)
  in
  let sum i = Array.fold_left ( +. ) 0. (Array.sub t.Calib.item_ns (i * steps) steps) in
  {
    lat_ns = Array.init n sum;
    fails = !fails;
    wall_ns = t.Calib.total_ns;
    raw_wall_ns = t.Calib.raw_total_ns;
    cal_ns = t.Calib.samples;
    notes = List.rev !notes;
  }

(* ---- the generated corpus ---------------------------------------------------- *)

(* Gen.generate, one Gen.build_instance at a time so that the set-up can
   be calibrated like a pass. *)
let generate spec config =
  let config = { config with Gen.seed = Int64.of_int spec.seed } in
  Gen.validate config;
  let points = Gen.grid config in
  let insts = Array.make config.Gen.count None in
  let t =
    Calib.timed config.Gen.count (fun i ->
        insts.(i) <- Some (Gen.build_instance config points i);
        0.)
  in
  let insts = Array.map Option.get insts in
  if spec.doctored then begin
    let e = insts.(0).Gen.expected in
    insts.(0) <-
      { (insts.(0)) with Gen.expected = { e with Gen.exit_code = (e.Gen.exit_code + 1) mod 4 } }
  end;
  (insts, (t.Calib.raw_total_ns /. 1e9, t.Calib.total_ns /. 1e9))

(* The CLI defaults of [kpt check FILE]: reorder auto, one file per
   call, the instance's own budget. *)
let check_opts (inst : Gen.instance) =
  {
    Driver.default_options with
    jobs = Some 1;
    limits = Gen.limits_of_budget inst.Gen.budget;
    reorder = Engine.Reorder_auto;
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The outcome class of a rendered [kpt check] summary line, in the
   manifest's vocabulary. *)
let klass_of_out out =
  if contains out " — standard, " then "standard"
  else if contains out ", converged in " then "kbp_converged"
  else if contains out " cycles with period " then "kbp_cycle"
  else if contains out " — budget exhausted; " then "exhausted"
  else if contains out " — does not elaborate; " then "error"
  else "unrecognised"

let verdict (inst : Gen.instance) ~code ~out =
  let e = inst.Gen.expected in
  let klass = klass_of_out out in
  if code = e.Gen.exit_code && klass = e.Gen.klass then None
  else
    Some
      (Printf.sprintf "%s: exit %d class %s, manifest says exit %d class %s"
         inst.Gen.filename code klass e.Gen.exit_code e.Gen.klass)

(* Stats.collect reports its inner phases only as totals; place them as
   children of the stats span.  Reordering runs inside the fixpoint. *)
let stats_spans (st : Stats.t) =
  let total name =
    List.fold_left
      (fun acc (n, ns, _) -> if n = name then Int64.add acc ns else acc)
      0L st.Stats.spans
  in
  let reorder = total "bdd.reorder" in
  let inner () = Trace.synthetic "bdd.reorder" reorder in
  let nest solver = if reorder <= total solver then inner else Fun.id in
  Trace.synthetic "kbp.to_standard" (total "to_standard");
  Trace.synthetic ~inner:(nest "si") "si" (total "si");
  Trace.synthetic ~inner:(nest "iterate") "kbp.iterate" (total "iterate");
  if not (reorder <= total "si" || reorder <= total "iterate") then inner ()

(* [Driver.check] on one file, called layer by layer in
   Check.check_source order under the same scoping (fresh engine,
   reorder auto, the budget armed around the file's work).  Driver.check
   renders a solver's exception with text private to Check, so a file
   whose solver raises keeps the untraced bytes [reference]: its
   verdict is still checked against the manifest, with exit code 3 for
   an exhausted budget as in Check.run_sources. *)
let traced_check ~reference (inst : Gen.instance) =
  let file = inst.Gen.filename and src = inst.Gen.source in
  let limits = Gen.limits_of_budget inst.Gen.budget in
  let eng = Engine.create () in
  Engine.set_reorder_mode eng (Some Engine.Reorder_auto);
  match
    Fun.protect
      ~finally:(fun () -> Engine.merge_metrics ~into:(Engine.current ()) eng)
      (fun () ->
        Engine.use eng (fun () ->
            Engine.with_budget limits (fun () ->
                let diags = Trace.span "lint" (fun () -> Lint.lint_source ~file src) in
                match
                  let ast = Trace.span "parse" (fun () -> Parser.program_of_string src) in
                  Trace.span "elaborate" (fun () -> Elaborate.program ast)
                with
                | loaded ->
                    let stats =
                      Trace.span "stats" (fun () ->
                          let st = Stats.collect ~file loaded in
                          stats_spans st;
                          st)
                    in
                    { Check.file; diags; stats = Some stats }
                | exception
                    ( Token.Lex_error _ | Parser.Parse_error _ | Elaborate.Elab_error _
                    | Invalid_argument _ ) ->
                    { Check.file; diags; stats = None })))
  with
  | exception Budget.Exhausted _ -> (3, reference)
  | exception _ -> (1, reference)
  | report ->
      let out =
        Trace.span "render" (fun () ->
            let b = Buffer.create 256 in
            let ppf = Format.formatter_of_buffer b in
            Check.render_text ppf [ report ];
            Format.pp_print_flush ppf ();
            Buffer.contents b)
      in
      (Diagnostic.exit_code report.Check.diags, out)

let corpus_check =
  let setup spec =
    let count = if spec.toy then 20 else Gen.default_config.Gen.count in
    let insts, gen_s = generate spec { Gen.default_config with count } in
    (* the untraced bytes of each input, which every traced pass must
       reproduce *)
    let reference = Array.make (Array.length insts) "" in
    let pass _ =
      let traced = !Trace.on in
      timed_pass (Array.mapi (fun i x -> (i, x)) insts) (fun (i, inst) _ ->
          let code, out =
            if traced then traced_check ~reference:reference.(i) inst
            else
              let o = Driver.check (check_opts inst) [ (inst.Gen.filename, inst.Gen.source) ] in
              (o.Driver.code, o.Driver.out)
          in
          fun () ->
            if not traced then reference.(i) <- out;
            match verdict inst ~code ~out with
            | Some _ as bad -> bad
            | None when traced && out <> reference.(i) ->
                Some (inst.Gen.filename ^ ": traced output differs from Driver.check")
            | None -> None)
    in
    {
      pass;
      work = engine_work;
      peak_rss_mb = self_rss;
      gen_s;
      serve = None;
      close = ignore;
    }
  in
  { name = "corpus-check"; tail_q = Some 0.99; setup }

(* ---- the built-in protocols (paper §6) ---------------------------------------- *)

open Kpt_protocols

let horizon = 2
let params = { Seqtrans.n = horizon; a = 2 }

(* What [kpt check <protocol> --horizon 2] runs, one entry per protocol
   and channel: the program, its safety predicate (34) and the liveness
   check (35)@k. *)
let protocols =
  let std lossy () =
    let st = Seqtrans.standard ~lossy params in
    (st.Seqtrans.sprog, Seqtrans.spec_safety st, fun k -> Seqtrans.spec_liveness_holds st ~k)
  in
  let abp lossy () =
    let t = Abp.make ~lossy params in
    (t.Abp.prog, Abp.safety t, fun k -> Abp.liveness_holds t ~k)
  in
  let stenning lossy () =
    let t = Stenning.make ~lossy params in
    (t.Stenning.prog, Stenning.safety t, fun k -> Stenning.liveness_holds t ~k)
  in
  let window lossy () =
    let t = Window.make ~lossy ~window:2 params in
    (t.Window.prog, Window.safety t, fun k -> Window.liveness_holds t ~k)
  in
  [
    ("standard-dup", std false);
    ("standard-lossy", std true);
    ("abp-dup", abp false);
    ("abp-lossy", abp true);
    ("stenning-dup", stenning false);
    ("stenning-lossy", stenning true);
    ("window-dup", window false);
    ("window-lossy", window true);
    ( "kbp",
      fun () ->
        let ab = Seqtrans.abstract_kbp params in
        ( ab.Seqtrans.aprog,
          Seqtrans.a_spec_safety ab,
          fun k -> Seqtrans.a_spec_liveness_holds ab ~k ) );
    ( "auy",
      fun () ->
        let t = Auy.make params in
        (t.Auy.prog, Auy.safety t, fun k -> Auy.liveness_holds t ~k) );
  ]

let expected_file = "perfbench/expected/protocols.json"

type expectation = { reachable : int; safety : bool; liveness : bool list }

let load_expected () =
  let j = Json.of_string (Proc.read_file expected_file) in
  let bad what = failwith (Printf.sprintf "%s: %s" expected_file what) in
  List.map
    (fun (name, _) ->
      match Json.member name (Option.value ~default:Json.Null (Json.member "protocols" j)) with
      | None -> bad ("no entry for " ^ name)
      | Some e -> (
          let field k conv = Option.bind (Json.member k e) conv in
          let bools l = List.map Json.to_bool l in
          match
            (field "reachable" Json.to_int, field "safety" Json.to_bool, field "liveness" Json.to_list)
          with
          | Some reachable, Some safety, Some l when List.for_all Option.is_some (bools l) ->
              (name, { reachable; safety; liveness = List.map Option.get (bools l) })
          | _ -> bad ("malformed entry for " ^ name)))
    protocols

let protocol_liveness =
  let setup spec =
    let chosen =
      if spec.toy then List.filter (fun (n, _) -> n = "auy" || n = "kbp") protocols
      else protocols
    in
    let expected = load_expected () in
    (* build each program once, so a reference entry whose protocol no
       longer builds fails here rather than inside the timed loop *)
    List.iter
      (fun (name, build) ->
        let prog, _, _ = build () in
        if Kpt_unity.Program.statements prog = [] then
          failwith (name ^ ": the protocol builds with no statements"))
      chosen;
    let expected =
      if spec.doctored then
        List.map
          (fun (n, e) ->
            if n = "auy" then (n, { e with liveness = List.map not e.liveness }) else (n, e))
          expected
      else expected
    in
    (* The ten protocols are fixed by the paper, so the seed changes
       nothing here; a fixed order also keeps the heap's high-water mark
       the same from run to run. *)
    let pass _ =
      (* step 0 builds the program and checks reachable states and
         safety; step k + 1 checks liveness (35)@k *)
      let current = ref None in
      timed_pass ~steps:(1 + horizon) (Array.of_list chosen) (fun (name, build) step ->
          if step = 0 then begin
            let prog, safety, live = Trace.span "build" build in
            let reachable =
              Trace.span "si" (fun () ->
                  Space.count_states_of (Kpt_unity.Program.space prog)
                    (Kpt_unity.Program.si prog))
            in
            let safe = Trace.span "safety" (fun () -> Kpt_unity.Program.invariant prog safety) in
            current := Some (live, reachable, safe, ref []);
            fun () -> None
          end
          else begin
            let live, reachable, safe, liveness = Option.get !current in
            liveness := !liveness @ [ Trace.span "leadsto" (fun () -> live (step - 1)) ];
            fun () ->
              let e = List.assoc name expected in
              if step < horizon then None
              else if reachable = e.reachable && safe = e.safety && !liveness = e.liveness then
                None
              else
                Some
                  (Printf.sprintf "%s: reachable %d safety %b liveness [%s]" name reachable safe
                     (String.concat "," (List.map string_of_bool !liveness)))
          end)
    in
    {
      pass;
      work = engine_work;
      peak_rss_mb = self_rss;
      gen_s = (0., 0.);
      serve = None;
      close = ignore;
    }
  in
  { name = "protocol-liveness"; tail_q = None; setup }

(* ---- kpt serve ------------------------------------------------------------------ *)

let daemons = ref 0

(* The LRU capacity [kpt serve] starts with. *)
let serve_cache_size = 256

let serve_setup ~hot spec =
  let config =
    if hot then
      { Gen.default_config with budgets = [ Gen.Bnone ]; count = (if spec.toy then 16 else 64) }
    else if spec.toy then { Gen.default_config with count = 20 }
    else Gen.default_config
  in
  let insts, gen_s = generate spec config in
  incr daemons;
  let socket =
    Filename.concat spec.out (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !daemons)
  in
  let d = Calib.unpinned (fun () -> Proc.spawn ~kpt:spec.kpt ~socket) in
  let request id (inst : Gen.instance) path =
    let files = [ (path, inst.Gen.source) ] in
    { Protocol.id; cmd = Protocol.Check; files; opts = check_opts inst }
  in
  (* serve-hot: Zipf(s=1) draws over the specs, so the few popular ones
     dominate; serve-distinct: every spec once, under a path that carries
     the pass number, so no request ever repeats *)
  let stream p =
    if hot then begin
      let n = Array.length insts in
      let weights = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
      let total = Array.fold_left ( +. ) 0. weights in
      let g = Rng.derive (Int64.of_int spec.seed) p in
      Array.init
        (if spec.toy then 500 else 20_000)
        (fun id ->
          let u = float_of_int (Rng.int g 1_000_000_000) /. 1e9 *. total in
          let rec pick k acc =
            if k = n - 1 || acc +. weights.(k) > u then k else pick (k + 1) (acc +. weights.(k))
          in
          let inst = insts.(pick 0 0.) in
          (inst, request id inst inst.Gen.filename))
    end
    else
      Array.mapi
        (fun id inst -> (inst, request id inst (Printf.sprintf "p%d/%s" p inst.Gen.filename)))
        insts
  in
  let pass p =
    timed_pass ~daemon:true (stream p) (fun (inst, req) _ ->
        let reply =
          try Proc.request d req with
          | Failure m | Json.Parse_error m -> Error m
          | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        in
        fun () ->
          match reply with
          | Ok (Protocol.Result { exit_code; out; _ }) -> verdict inst ~code:exit_code ~out
          | Ok (Protocol.Error_frame { message; _ }) -> Some (inst.Gen.filename ^ ": " ^ message)
          | Ok (Protocol.Event _) -> Some (inst.Gen.filename ^ ": unexpected event frame")
          | Error m -> Some (inst.Gen.filename ^ ": " ^ m))
  in
  let work () =
    let fields = Proc.ping d in
    List.map
      (fun k -> (k, Option.value ~default:0 (List.assoc_opt k fields)))
      [ "requests"; "cache_hits"; "cache_misses"; "cache_evictions"; "sheds"; "io_timeouts" ]
  in
  let replay () =
    let h = Handler.create ~cache_size:serve_cache_size in
    Array.iter (fun (_, r) -> ignore (Handler.handle h r)) (stream 0);
    let reqs = stream 1 in
    let counts = engine_work () in
    let t =
      Calib.timed (Array.length reqs) (fun i ->
          let t0 = now () in
          ignore (Handler.handle h (snd reqs.(i)));
          now () -. t0)
    in
    ( Array.fold_left ( +. ) 0. t.Calib.item_ns,
      Array.length reqs,
      diff (engine_work ()) counts )
  in
  {
    pass;
    work;
    peak_rss_mb = (fun () -> Proc.peak_rss_mb (string_of_int d.Proc.pid));
    gen_s;
    serve = Some { daemon_cpu_ns = (fun () -> Proc.cpu_ns d.Proc.pid); replay };
    close = (fun () -> Proc.stop d);
  }

let serve_distinct =
  { name = "serve-distinct"; tail_q = Some 0.99; setup = serve_setup ~hot:false }

let serve_hot = { name = "serve-hot"; tail_q = Some 0.99; setup = serve_setup ~hot:true }

let all = [ corpus_check; protocol_liveness; serve_distinct; serve_hot ]
let find name = List.find_opt (fun w -> w.name = name) all

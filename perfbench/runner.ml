(* One run of one workload: set it up several times, warm it up, then
   time whole passes over its inputs for the requested number of
   seconds, and turn the passes into metrics.

   With tracing, untraced and traced passes alternate, so the end-to-end
   metrics still come from untraced passes and the tracing overhead is
   measured against passes of the same process. *)

module W = Workloads

(* Taken when the runner's module is initialised, which is as close to
   process start as OCaml code gets. *)
let start_ns = Kpt_obs.now_ns ()

type metric = { name : string; value : float; unit_ : string }

type result = {
  workload : string;
  seed : int;
  trace : bool;
  toy : bool;
  passes : int;  (* timed untraced passes *)
  traced_passes : int;
  attempted : int;
  failed : int;
  notes : string list;  (* failed inputs, then problems with the run itself *)
  problems : int;
  e2e : metric list;
  layers : metric list;
  work : (string * int) list;  (* one pass's work vector *)
  self_ms : (string * float) list;  (* self time per span name, per traced pass *)
  calibration_ms : float;  (* the machine's speed during the run: see Calib *)
  chrome : Json.t option;
}

let correct r = r.failed = 0 && r.problems = 0

(* Spans whose self time is reported, in layer order. *)
let self_spans =
  [
    "parse"; "elaborate"; "lint"; "stats"; "render"; "si"; "safety";
    "kbp.to_standard"; "kbp.iterate"; "bdd.reorder"; "build"; "leadsto"; "client.encode";
    "client.send"; "client.wait"; "client.decode";
  ]

(* Engine counters reported per pass. *)
let engine_counts =
  [
    "sst.iterations"; "sst.runs"; "kbp.g_operator.applications"; "kbp.iterate.steps";
    "wcyl.calls"; "knowledge.knows.calls"; "bdd.nodes.created"; "bdd.op_cache.grows";
    "bdd.unique.grows"; "bdd.reorder.runs"; "bdd.gc.runs"; "space.early_quant.steps";
    "leadsto.gfp.runs"; "leadsto.gfp.sweeps";
  ]

let diff = W.diff
let get k l = Option.value ~default:0 (List.assoc_opt k l)
let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)
let secs ns = ns /. 1e9
let since t0 = Int64.to_float (Int64.sub (Kpt_obs.now_ns ()) t0) /. 1e9

(* The counters two work vectors disagree on. *)
let moved before after =
  List.filter_map
    (fun (k, v) ->
      let v0 = get k before in
      if v = v0 then None else Some (Printf.sprintf "%s %d vs %d" k v0 v))
    after
  |> String.concat ", "

type upass = { p : W.pass; work : (string * int) list; minor_words : float; majors : int }

let run (w : W.t) (spec : W.spec) ~seconds ~trace ~prev_work =
  Calib.pin_self ();
  (* untraced passes at least: enough for a median, or with tracing (whose
     end-to-end numbers are not reported) one beside each traced pass *)
  let min_passes = if trace || spec.W.toy then 2 else 3 in
  (* Set up at least three times and until the set-ups add up to a
     second (at most 25), so that even a millisecond set-up has a steady
     median; keep the last instance.  The first set-up also pays for
     process start.  Input generation is calibrated as it runs; the rest
     of a set-up is scaled by a calibration sample taken after it. *)
  let setups = ref [] (* raw seconds, scaled seconds *) in
  let inst = ref None in
  let enough () =
    let n = List.length !setups in
    if spec.W.toy then n >= 1
    else n >= 3 && (List.fold_left (fun a (s, _) -> a +. s) 0. !setups >= 1. || n >= 25)
  in
  while not (enough ()) do
    Option.iter (fun (i : W.instance) -> i.W.close ()) !inst;
    let t0 = if !setups = [] then start_ns else Kpt_obs.now_ns () in
    let i = w.W.setup spec in
    let s = since t0 in
    let gen_raw, gen_scaled = i.W.gen_s in
    let rest = (s -. gen_raw) *. Calib.reference_ns /. Calib.sample ~daemon:false in
    setups := (s, gen_scaled +. rest) :: !setups;
    inst := Some i
  done;
  let inst = Option.get !inst in
  Fun.protect ~finally:inst.W.close @@ fun () ->
  let attempted = ref 0 and failed = ref 0 and notes = ref [] and problems = ref [] in
  let record (p : W.pass) =
    attempted := !attempted + Array.length p.W.lat_ns;
    failed := !failed + p.W.fails;
    notes := List.rev_append p.W.notes !notes
  in
  record (inst.W.pass 0);
  let untraced = ref [] and traced = ref [] in
  let self = Hashtbl.create 32 in
  let chrome = ref None in
  let candidates = ref 0 in
  let sink name fields =
    if name = "leadsto.gfp" then candidates := !candidates + get "candidates" fields
  in
  let loop_work0 = inst.W.work () in
  let cpu0 = Option.map (fun s -> s.W.daemon_cpu_ns ()) inst.W.serve in
  let t_loop = Kpt_obs.now_ns () in
  let pass_no = ref 1 in
  while since t_loop < float_of_int seconds || List.length !untraced < min_passes do
    let w0 = inst.W.work () and g0 = Gc.quick_stat () in
    let p = inst.W.pass !pass_no in
    let g1 = Gc.quick_stat () and w1 = inst.W.work () in
    incr pass_no;
    record p;
    let work = diff w1 w0 in
    (match !untraced with
    | first :: _ when first.work <> work ->
        problems := ("work vector differs between passes: " ^ moved first.work work) :: !problems
    | _ -> ());
    untraced :=
      !untraced
      @ [
          {
            p;
            work;
            minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
            majors = g1.Gc.major_collections - g0.Gc.major_collections;
          };
        ];
    if trace then begin
      Trace.on := true;
      Kpt_obs.set_sink (Some sink);
      let p =
        Fun.protect
          ~finally:(fun () ->
            Trace.on := false;
            Kpt_obs.set_sink None)
          (fun () -> inst.W.pass !pass_no)
      in
      incr pass_no;
      record p;
      traced := p :: !traced;
      let evs = Trace.take () in
      List.iter
        (fun (k, ns) ->
          Hashtbl.replace self k (ns +. Option.value ~default:0. (Hashtbl.find_opt self k)))
        (Trace.self_ns evs);
      if !chrome = None then chrome := Some (Trace.chrome_json evs)
    end
  done;
  let loop_s = since t_loop in
  let loop_work = diff (inst.W.work ()) loop_work0 in
  let busy =
    match (inst.W.serve, cpu0) with
    | Some s, Some c0 -> (s.W.daemon_cpu_ns () -. c0) /. 1e9 /. loop_s
    | _ -> 0.
  in
  let work = (List.hd !untraced).work in
  (match prev_work with
  | Some prev when prev <> work ->
      problems :=
        ("work vector differs from the --check-work run: " ^ moved prev work) :: !problems
  | _ -> ());
  (* per-pass engine counts: the first timed pass, or for the daemon
     workloads an in-process replay of one pass through Handler.handle *)
  let counts, handler_ns =
    match inst.W.serve with
    | Some s when trace ->
        let ns, n, counts = s.W.replay () in
        (counts, ns /. float_of_int n)
    | _ -> (work, 0.)
  in
  let upasses = List.map (fun u -> u.p) !untraced in
  let vps (p : W.pass) = float_of_int (Array.length p.W.lat_ns) /. secs p.W.wall_ns in
  let med f l = Stat.median_l (List.map f l) in
  let verdicts_per_s = med vps upasses in
  let tail (p : W.pass) =
    match w.W.tail_q with
    | Some q -> Stat.quantile p.W.lat_ns q
    | None -> Stat.max_of p.W.lat_ns
  in
  let e2e =
    [
      { name = "setup_s"; value = Stat.median_l (List.map snd !setups); unit_ = "s" };
      { name = "verdicts_per_s"; value = verdicts_per_s; unit_ = "1/s" };
      {
        name = "latency_p50_ms";
        value = med (fun p -> Stat.median p.W.lat_ns /. 1e6) upasses;
        unit_ = "ms";
      };
      { name = "latency_tail_ms"; value = med (fun p -> tail p /. 1e6) upasses; unit_ = "ms" };
      { name = "peak_rss_mb"; value = inst.W.peak_rss_mb (); unit_ = "MB" };
    ]
  in
  let sum f = List.fold_left (fun a (p : W.pass) -> a +. f p) 0. !traced in
  (* span self times are raw: scale them by the traced passes' mean factor *)
  let k_traced = sum (fun p -> p.W.wall_ns) /. sum (fun p -> p.W.raw_wall_ns) in
  let layers =
    if not trace then []
    else begin
      let traced_inputs = sum (fun p -> float_of_int (Array.length p.W.lat_ns)) in
      let n_traced = float_of_int (List.length !traced) in
      let share ns = 100. *. ns /. sum (fun p -> p.W.raw_wall_ns) in
      let self_of k = Option.value ~default:0. (Hashtbl.find_opt self k) in
      let covered = Hashtbl.fold (fun _ ns a -> a +. ns) self 0. in
      let handler_pct = 100. *. handler_ns *. traced_inputs /. sum (fun p -> p.W.wall_ns) in
      let m name unit_ value = { name; value; unit_ } in
      let count k = m k "count" (float_of_int (get k counts)) in
      let n_passes = float_of_int (List.length !untraced + List.length !traced) in
      List.map (fun s -> m (s ^ ".self_pct") "%" (share (self_of s))) self_spans
      @ [
          m "handler.self_pct" "%" handler_pct;
          m "wire.overhead_pct" "%" (share (self_of "client.wait") -. handler_pct);
          m "gen.self_pct" "%" (100. *. fst inst.W.gen_s /. fst (List.hd !setups));
        ]
      @ List.map count engine_counts
      @ [
          m "bdd.nodes.peak" "count" (float_of_int (get "bdd.nodes.peak" (Kpt_obs.counters ())));
          m "bdd.op_cache.hit_ratio" "ratio"
            (ratio (get "bdd.op_cache.hits" counts) (get "bdd.op_cache.misses" counts));
          m "space.quant_cache.hit_ratio" "ratio"
            (ratio (get "space.quant_cache.hits" counts) (get "space.quant_cache.misses" counts));
          m "leadsto.candidates" "count" (float_of_int !candidates /. n_traced);
          m "serve.cache.hit_ratio" "ratio"
            (ratio (get "cache_hits" loop_work) (get "cache_misses" loop_work));
          m "serve.cache.evictions" "count"
            (float_of_int (get "cache_evictions" loop_work) /. n_passes);
          m "serve.sheds" "count" (float_of_int (get "sheds" loop_work));
          m "serve.io_timeouts" "count" (float_of_int (get "io_timeouts" loop_work));
          m "daemon.busy_ratio" "ratio" busy;
          m "gc.minor_words_per_verdict" "words"
            (med
               (fun u -> u.minor_words /. float_of_int (Array.length u.p.W.lat_ns))
               !untraced);
          m "gc.major_collections" "count" (med (fun u -> float_of_int u.majors) !untraced);
          m "trace.overhead_ratio" "ratio" (med vps !traced /. verdicts_per_s);
          m "trace.coverage_pct" "%" (share covered);
        ]
    end
  in
  {
    workload = w.W.name;
    seed = spec.W.seed;
    trace;
    toy = spec.W.toy;
    passes = List.length !untraced;
    traced_passes = List.length !traced;
    attempted = !attempted;
    failed = !failed;
    notes = List.rev !notes @ List.rev !problems;
    problems = List.length !problems;
    e2e;
    layers;
    work;
    self_ms =
      List.filter_map
        (fun s ->
          Option.map
            (fun ns -> (s, ns *. k_traced /. 1e6 /. float_of_int (List.length !traced)))
            (Hashtbl.find_opt self s))
        self_spans;
    calibration_ms =
      Stat.median_l (List.map (fun p -> Stat.median p.W.cal_ns /. 1e6) upasses);
    chrome = !chrome;
  }

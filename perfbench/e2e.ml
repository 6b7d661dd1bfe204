(* The end-to-end benchmark of kpt: four workloads, measured from spec
   bytes to rendered verdict, end to end and layer by layer.

     e2e.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     e2e.exe --all [--seed N] [--seconds S] [--trace 0|1]
     e2e.exe --smoke
     e2e.exe compare A.json... -- B.json...

   A run prints one "name value unit" line per metric and, last, one
   JSON object {correct, attempted, failed, metrics}.  It exits 1 when
   any answer was wrong or the run distrusts its own numbers.  Results,
   traces and the daemon's socket go to --out (default _build/e2e),
   never into the source tree.  See README.md. *)

module W = Workloads

let benchmark_file = "BENCHMARK.json"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The checked-out commit, read from .git without running git. *)
let git_head () =
  let read p = String.trim (Proc.read_file (Filename.concat ".git" p)) in
  match read "HEAD" with
  | exception Sys_error _ -> None
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read r with
      | sha -> Some sha
      | exception Sys_error _ -> (
          match read "packed-refs" with
          | exception Sys_error _ -> None
          | packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ sha; r' ] when r' = r -> Some sha
                     | _ -> None)))
  | sha -> Some sha

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : Runner.metric) ->
         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
       ms)

let result_json (r : Runner.result) =
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("trace", Json.Bool r.trace);
      ("toy", Json.Bool r.toy);
      ("passes", Json.Int r.passes);
      ("traced_passes", Json.Int r.traced_passes);
      ("domains", Json.Int Calib.domains);
      ("ocaml", Json.String Sys.ocaml_version);
      ("git", match git_head () with Some s -> Json.String s | None -> Json.Null);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("correct", Json.Bool (Runner.correct r));
      ("notes", Json.List (List.map (fun s -> Json.String s) r.notes));
      ("metrics", metrics_json (r.e2e @ r.layers));
      ("work", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.work));
      ("work_excluded", Json.List (List.map (fun s -> Json.String s) W.work_excluded));
      ("self_ms_per_pass", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.self_ms));
      ("calibration_ms", Json.Float r.calibration_ms);
    ]

let prev_work (w : W.t) (spec : W.spec) path =
  let j = Json.of_string (Proc.read_file path) in
  let field k conv = Option.bind (Json.member k j) conv in
  if
    field "workload" Json.to_str <> Some w.W.name
    || field "seed" Json.to_int <> Some spec.W.seed
    || field "toy" Json.to_bool <> Some spec.W.toy
  then failwith (path ^ ": --check-work needs a run of the same workload, seed and size");
  match Json.member "work" j with
  | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.to_int v)) kvs
  | _ -> failwith (path ^ ": no work vector")

let run_one (w : W.t) (spec : W.spec) ~seconds ~trace ~check_work =
  mkdir_p spec.W.out;
  let prev_work = Option.map (prev_work w spec) check_work in
  let r = Runner.run w spec ~seconds ~trace ~prev_work in
  let base =
    Filename.concat spec.W.out
      (Printf.sprintf "%s-seed%d-trace%d" w.W.name spec.W.seed (Bool.to_int trace))
  in
  write_file (base ^ ".json") (Json.to_string (result_json r) ^ "\n");
  Option.iter
    (fun c ->
      write_file
        (Filename.concat spec.W.out (Printf.sprintf "trace-%s.json" w.W.name))
        (Json.to_string c))
    r.chrome;
  Printf.printf
    "# %s seed=%d passes=%d traced_passes=%d calibration_ms=%.4f domains=%d ocaml=%s git=%s\n"
    r.workload r.seed r.passes r.traced_passes r.calibration_ms
    Calib.domains
    Sys.ocaml_version
    (Option.value ~default:"unknown" (git_head ()));
  List.iter
    (fun (m : Runner.metric) -> Printf.printf "%s %.6g %s\n" m.name m.value m.unit_)
    (r.e2e @ r.layers);
  Printf.printf "failed_ratio %.6g ratio\n"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  List.iter (Printf.printf "# %s\n") r.notes;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (Runner.correct r));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", metrics_json (if trace then r.layers else r.e2e));
          ]));
  r

let exit_code r = if Runner.correct r then 0 else 1

(* ---- --all and --smoke: one fresh child process per workload run ------------- *)

let child_argv ~spec ~seconds ~trace ~toy (w : W.t) =
  Array.of_list
    ([
       Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int spec.W.seed;
       "--seconds"; string_of_int seconds; "--trace"; string_of_int trace; "--out"; spec.W.out;
       "--kpt"; spec.W.kpt;
     ]
    @ if toy then [ "--toy" ] else [])

let all ~spec ~seconds ~trace =
  List.fold_left
    (fun code w ->
      List.fold_left
        (fun code t ->
          let c, _ = Proc.run ~capture:false (child_argv ~spec ~seconds ~trace:t ~toy:false w) in
          max code c)
        code
        (if trace = 1 then [ 0; 1 ] else [ 0 ]))
    0 W.all

(* The comparator must notice a wrong answer: against a reference with
   one manifest exit code changed, and one with a liveness verdict
   flipped, the run must count failures and exit non-zero. *)
let self_test ~spec =
  List.for_all
    (fun (w : W.t) ->
      let r =
        Runner.run w { spec with W.toy = true; doctored = true } ~seconds:0 ~trace:false
          ~prev_work:None
      in
      let ok = r.failed > 0 && exit_code r <> 0 in
      Printf.printf "self-test %s: %d of %d answers failed against the doctored reference: %s\n"
        w.W.name r.failed r.attempted
        (if ok then "ok" else "NOT DETECTED");
      ok)
    [ W.corpus_check; W.protocol_liveness ]

(* Every workload at toy size, traced and untraced: each metric named in
   BENCHMARK.json must be printed as "name value unit", nothing may
   fail, and the self-test must detect the doctored references. *)
let smoke ~spec =
  let e2e, per_layer = Compare.load_benchmark benchmark_file in
  let problems = ref [] in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (trace, wanted) ->
          let code, out =
            Proc.run ~capture:true (child_argv ~spec ~seconds:0 ~trace ~toy:true w)
          in
          print_string out;
          let lines = String.split_on_char '\n' (String.trim out) in
          let printed (m : Compare.metric) =
            List.exists
              (fun l ->
                match String.split_on_char ' ' l with
                | [ n; v; u ] -> n = m.name && u = m.unit_ && Float.of_string_opt v <> None
                | _ -> false)
              lines
          in
          let fail fmt =
            Printf.ksprintf
              (fun s -> problems := Printf.sprintf "%s trace=%d: %s" w.W.name trace s :: !problems)
              fmt
          in
          if code <> 0 then fail "exit code %d" code;
          List.iter
            (fun (m : Compare.metric) -> if not (printed m) then fail "%s not printed" m.name)
            wanted;
          let last = Json.of_string (List.nth lines (List.length lines - 1)) in
          if Option.bind (Json.member "failed" last) Json.to_int <> Some 0 then
            fail "failed_ratio is not 0")
        [ (0, e2e); (1, per_layer) ])
    W.all;
  let detected = self_test ~spec in
  List.iter (Printf.printf "smoke: %s\n") (List.rev !problems);
  if !problems = [] && detected then begin
    print_endline "smoke: ok";
    0
  end
  else 1

(* ---- command line ----------------------------------------------------------------- *)

let usage =
  "e2e.exe (--workload W | --all | --smoke) [--seed N] [--seconds S] [--trace 0|1] [--out DIR] \
   [--kpt PATH] [--check-work PREV.json]\n\
   e2e.exe compare A.json... -- B.json...\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all)

let main () =
  let argv = Array.to_list Sys.argv in
  match List.tl argv with
  | "compare" :: files -> (
      let rec split a = function
        | "--" :: b when not (List.mem "--" b) -> Some (List.rev a, b)
        | x :: rest when x <> "--" -> split (x :: a) rest
        | _ -> None
      in
      match split [] files with
      | Some ((_ :: _ as a), (_ :: _ as b)) -> Compare.run ~benchmark:benchmark_file a b
      | _ ->
          prerr_endline usage;
          2)
  | _ ->
      let workload = ref None and mode_all = ref false and mode_smoke = ref false in
      let seed = ref 1 and seconds = ref 18 and trace = ref 0 and toy = ref false in
      let out = ref "_build/e2e" and kpt = ref "_build/default/bin/kpt.exe" in
      let check_work = ref None in
      let specs =
        [
          ("--workload", Arg.String (fun s -> workload := Some s), "W  run one workload");
          ("--all", Arg.Set mode_all, " run every workload, each in a fresh process");
          ("--smoke", Arg.Set mode_smoke, " every workload at toy size, plus the self-test");
          ("--seed", Arg.Set_int seed, "N  the workload seed (default 1)");
          ("--seconds", Arg.Set_int seconds, "S  how long the timed passes run (default 18)");
          ("--trace", Arg.Set_int trace, "0|1  also run traced passes (default 0)");
          ("--out", Arg.Set_string out, "DIR  results, traces and sockets (default _build/e2e)");
          ("--kpt", Arg.Set_string kpt, "PATH  the kpt executable the serve workloads start");
          ( "--check-work",
            Arg.String (fun s -> check_work := Some s),
            "PREV.json  compare the work vector with an earlier run's" );
          ("--toy", Arg.Set toy, " smoke-test sizes");
        ]
      in
      let anon a = raise (Arg.Bad ("unexpected " ^ a)) in
      match Arg.parse_argv Sys.argv (Arg.align specs) anon usage with
      | exception Arg.Bad msg ->
          prerr_string msg;
          2
      | exception Arg.Help msg ->
          print_string msg;
          0
      | () -> (
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          (* the CLI default of kpt check *)
          Kpt_predicate.Engine.set_default_reorder_mode Kpt_predicate.Engine.Reorder_auto;
          let spec = { W.seed = !seed; toy = !toy; doctored = false; kpt = !kpt; out = !out } in
          if !trace <> 0 && !trace <> 1 then begin
            prerr_endline "--trace takes 0 or 1";
            2
          end
          else
            match (!workload, !mode_all, !mode_smoke) with
            | Some name, false, false -> (
                match W.find name with
                | Some w ->
                    let trace = !trace = 1 in
                    exit_code (run_one w spec ~seconds:!seconds ~trace ~check_work:!check_work)
                | None ->
                    prerr_endline ("unknown workload " ^ name ^ "\n" ^ usage);
                    2)
            | None, true, false -> all ~spec ~seconds:!seconds ~trace:!trace
            | None, false, true ->
                mkdir_p spec.W.out;
                smoke ~spec
            | _ ->
                prerr_endline usage;
                2)

let () =
  exit
    (try main () with
    | Failure msg | Sys_error msg ->
        prerr_endline ("e2e: " ^ msg);
        1
    | Json.Parse_error msg ->
        prerr_endline ("e2e: malformed JSON: " ^ msg);
        1)

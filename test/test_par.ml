(* The domain pool, engine contexts, and the [kpt check] batch driver.

   The load-bearing properties pinned here:
   - pool results are ordered by input index, whatever the pool size;
   - a raising task yields [Error] in its own slot only;
   - each task runs under a fresh engine (counters start at zero) and
     its metrics are merged into the caller's context after the join;
   - [kpt check -j 4] output — text and JSON — is byte-identical to
     [-j 1] over the examples corpus, and the per-file stats snapshot
     (BDD node/peak counts included) is pool-size-independent;
   - degenerate corpora behave: empty list, duplicate paths, and one
     unparsable file among good ones. *)

module Check = Kpt_analysis.Check
module Stats = Kpt_analysis.Stats
module D = Kpt_analysis.Diagnostic
module Engine = Kpt_predicate.Engine
module Space = Kpt_predicate.Space

(* ---- corpus ----------------------------------------------------------------- *)

(* Same file set, labels and order as `kpt check examples/specs/*.unity`
   run from the repository root (the shell glob sorts). *)
let spec_names () =
  Sys.readdir "../examples/specs" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".unity")
  |> List.sort compare

let corpus () =
  List.map
    (fun n -> ("examples/specs/" ^ n, Helpers.slurp ("../examples/specs/" ^ n)))
    (spec_names ())

let to_string render reports =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  render ppf reports;
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* ---- the pool --------------------------------------------------------------- *)

let test_map_ordering () =
  let items = List.init 100 Fun.id in
  let expected = List.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      let got = Kpt_par.map ~jobs (fun i -> i * i) items in
      Alcotest.(check (list int))
        (Printf.sprintf "input order at jobs=%d" jobs)
        expected got)
    [ 1; 4; 16; 500 (* clamped to the item count *) ]

let test_pool_spawns_once () =
  (* the P7 fix: helper domains are spawned once per process and reused —
     repeated batches at the same width must not grow the pool *)
  ignore (Kpt_par.map ~jobs:4 succ (List.init 64 Fun.id));
  let size = Kpt_par.pool_size () in
  (* width is additionally clamped to the core count, so on a small
     machine the pool may legitimately stay empty — the property under
     test is that repeated batches never grow it *)
  Alcotest.(check bool) (Printf.sprintf "pool within requested width (%d)" size) true
    (size <= 3);
  for _ = 1 to 5 do
    ignore (Kpt_par.map ~jobs:4 succ (List.init 64 Fun.id))
  done;
  Alcotest.(check int) "pool stable across batches" size (Kpt_par.pool_size ())

let test_try_map_isolates_exceptions () =
  let items = List.init 10 Fun.id in
  let results =
    Kpt_par.try_map ~jobs:4
      (fun i -> if i mod 2 = 0 then failwith (string_of_int i) else i * 10)
      items
  in
  List.iteri
    (fun i -> function
      | Ok v ->
          Alcotest.(check bool) "odd tasks succeed" true (i mod 2 = 1);
          Alcotest.(check int) "with the right value" (i * 10) v
      | Error (Failure msg) ->
          Alcotest.(check bool) "even tasks fail" true (i mod 2 = 0);
          Alcotest.(check string) "with their own exception" (string_of_int i) msg
      | Error e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e))
    results;
  Alcotest.check_raises "map re-raises the first failure (input order)"
    (Failure "0") (fun () ->
      ignore (Kpt_par.map ~jobs:4 (fun i -> failwith (string_of_int i)) items))

let test_task_ctx_isolation_and_merge () =
  let c = Kpt_obs.counter "test.par.work" in
  let before = Kpt_obs.value c in
  let entry_values =
    Kpt_par.map ~jobs:4
      (fun _ ->
        let v = Kpt_obs.value c in
        Kpt_obs.incr c;
        v)
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list int))
    "every task starts from a zeroed metric context"
    (List.init 8 (fun _ -> 0))
    entry_values;
  Alcotest.(check int) "per-task bumps are merged into the caller after the join"
    (before + 8) (Kpt_obs.value c)

(* ---- engine scoping --------------------------------------------------------- *)

let test_engine_scoping () =
  Alcotest.(check bool) "outside any [use] the current engine is the default" true
    (Engine.is_default (Engine.current ()));
  let e = Engine.create () in
  Alcotest.(check bool) "a fresh engine is not the default" false (Engine.is_default e);
  Alcotest.(check bool) "and has a distinct id" true
    (Engine.id e <> Engine.id Engine.default);
  Engine.use e (fun () ->
      Alcotest.(check int) "inside [use] it is current" (Engine.id e)
        (Engine.id (Engine.current ()));
      let sp = Space.create () in
      Alcotest.(check int) "spaces created inside [use] belong to it" (Engine.id e)
        (Engine.id (Space.engine sp)));
  Alcotest.(check bool) "[use] restores the previous engine" true
    (Engine.is_default (Engine.current ()));
  let sp = Space.create ~engine:e () in
  Alcotest.(check int) "explicit attribution wins over the ambient engine"
    (Engine.id e)
    (Engine.id (Space.engine sp));
  Alcotest.(check bool) "default spaces belong to the default engine" true
    (Engine.is_default (Space.engine (Space.create ())))

(* ---- differential determinism ----------------------------------------------- *)

let test_check_differential () =
  let sources = corpus () in
  let r1 = Check.reports ~jobs:1 sources in
  let r4 = Check.reports ~jobs:4 sources in
  Alcotest.(check string) "text output is byte-identical at -j 1 and -j 4"
    (to_string Check.render_text r1)
    (to_string Check.render_text r4);
  Alcotest.(check string) "JSON output is byte-identical at -j 1 and -j 4"
    (Json.to_pretty (Check.to_json r1))
    (Json.to_pretty (Check.to_json r4))

let stats_json st = Json.to_pretty (Stats.to_json ~timings:false st)

let test_stats_pool_independent () =
  let sources = corpus () in
  let snapshot jobs =
    Check.reports ~jobs sources
    |> List.map (fun (r : Check.report) ->
           ( r.Check.file,
             Option.map stats_json r.Check.stats ))
  in
  let s1 = snapshot 1 and s4 = snapshot 4 in
  List.iter2
    (fun (f1, j1) (f4, j4) ->
      Alcotest.(check string) "same file order" f1 f4;
      Alcotest.(check (option string))
        (Printf.sprintf "%s: stats (incl. BDD node/peak counts) match" f1)
        j1 j4)
    s1 s4

(* ---- degenerate corpora ------------------------------------------------------ *)

let test_empty_corpus () =
  let b = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer b in
  let code = Check.run_sources ~jobs:2 ppf [] in
  Format.pp_print_flush ppf ();
  Alcotest.(check int) "empty corpus exits 0" 0 code;
  Alcotest.(check string) "and says so" "no files to check\n" (Buffer.contents b)

let test_duplicate_paths () =
  let file = "examples/specs/transmit.unity" in
  let src = Helpers.slurp "../examples/specs/transmit.unity" in
  match Check.reports ~jobs:2 [ (file, src); (file, src) ] with
  | [ a; b ] ->
      Alcotest.(check string) "both reports carry the path" a.Check.file b.Check.file;
      Alcotest.(check (option string))
        "and identical stats"
        (Option.map stats_json a.Check.stats)
        (Option.map stats_json b.Check.stats)
  | rs -> Alcotest.failf "expected 2 reports, got %d" (List.length rs)

let test_bad_file_does_not_poison_siblings () =
  let good1 = ("good1.unity", Helpers.slurp "../examples/specs/transmit.unity") in
  let bad = ("bad.unity", "program broken\nvar x : bool\n!!! not unity at all") in
  let good2 = ("good2.unity", Helpers.slurp "../examples/specs/mutex.unity") in
  let rs = Check.reports ~jobs:2 [ good1; bad; good2 ] in
  (match rs with
  | [ a; b; c ] ->
      Alcotest.(check bool) "first sibling is clean" false (Check.failed a);
      Alcotest.(check bool) "and solved" true (a.Check.stats <> None);
      Alcotest.(check bool) "the broken file fails" true (Check.failed b);
      Alcotest.(check bool) "without stats" true (b.Check.stats = None);
      Alcotest.(check bool) "second sibling is clean" false (Check.failed c);
      Alcotest.(check bool) "and solved" true (c.Check.stats <> None)
  | _ -> Alcotest.failf "expected 3 reports, got %d" (List.length rs));
  let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  Alcotest.(check int) "batch exit code reports the failure" 1
    (Check.run_sources ~jobs:2 ~quiet:true null [ good1; bad; good2 ])

(* ---- the pool-width contract -------------------------------------------------
   The frozen-pool bug: the pool used to spawn at the first batch's
   width and silently run every later, wider batch at it.  The contract
   now is grow-on-mismatch — and it must be testable on a single-core CI
   host, where the hardware clamp would otherwise hide any growth, hence
   the oversubscribe escape hatch. *)

let test_pool_grows_on_wider_request () =
  let sources = corpus () in
  let r1 = Check.reports ~jobs:1 sources in
  let before = Kpt_par.pool_size () in
  Unix.putenv "KPT_POOL_OVERSUBSCRIBE" "1";
  let r6 =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "KPT_POOL_OVERSUBSCRIBE" "0")
      (fun () -> Check.reports ~jobs:6 sources)
  in
  let after = Kpt_par.pool_size () in
  Alcotest.(check bool)
    (Printf.sprintf "pool grew for the wider batch (%d -> %d, want >= 5)" before after)
    true (after >= 5);
  Alcotest.(check bool) "the pool never shrinks" true (after >= before);
  Alcotest.(check string) "output is byte-identical across the growth"
    (to_string Check.render_text r1)
    (to_string Check.render_text r6);
  (* a later narrower batch leaves the grown pool alone *)
  ignore (Check.reports ~jobs:1 sources);
  Alcotest.(check int) "a narrower batch does not shrink it" after (Kpt_par.pool_size ())

(* ---- golden ------------------------------------------------------------------ *)

(* Regenerate with:
     dune exec bin/kpt.exe -- check examples/specs/*.unity --json --reorder=off \
       > test/golden/check_specs.json
   (from the repository root; --reorder=off because this test runs
   in-process under the library default, which is off — the CLI default
   is auto). *)
let test_check_json_golden () =
  let got = Check.to_json (Check.reports ~jobs:2 (corpus ())) in
  Alcotest.(check string) "kpt check --json batch summary"
    (Helpers.slurp "golden/check_specs.json")
    (Json.to_pretty (Helpers.strip_test_counters got))

let suite =
  [
    Alcotest.test_case "pool preserves input order" `Quick test_map_ordering;
    Alcotest.test_case "pool spawns once per process" `Quick test_pool_spawns_once;
    Alcotest.test_case "try_map isolates exceptions" `Quick
      test_try_map_isolates_exceptions;
    Alcotest.test_case "task contexts isolate and merge" `Quick
      test_task_ctx_isolation_and_merge;
    Alcotest.test_case "engine scoping" `Quick test_engine_scoping;
    Alcotest.test_case "check -j4 byte-identical to -j1" `Quick test_check_differential;
    Alcotest.test_case "stats are pool-size-independent" `Quick
      test_stats_pool_independent;
    Alcotest.test_case "empty corpus" `Quick test_empty_corpus;
    Alcotest.test_case "duplicate paths" `Quick test_duplicate_paths;
    Alcotest.test_case "bad file does not poison siblings" `Quick
      test_bad_file_does_not_poison_siblings;
    Alcotest.test_case "check --json golden" `Quick test_check_json_golden;
    (* last: grows the process-global pool past the small-width
       assertions the earlier cases make *)
    Alcotest.test_case "pool grows on a wider request" `Quick
      test_pool_grows_on_wider_request;
  ]

(* The benchmark harness.

   Part 1 regenerates every figure/claim of the paper (experiments E1-E9
   of DESIGN.md §3) and prints paper-vs-measured tables — the paper is a
   theory paper, so its "tables and figures" are counterexamples,
   derivations and protocol obligations rather than performance numbers.

   Part 2 runs Bechamel micro/macro benchmarks of every engine built for
   the reproduction (P1-P6): BDD operations, SI fixpoints, the knowledge
   transformer, the exhaustive KBP solver, the fair leads-to decision
   procedure, and concrete simulation throughput.

   Besides the pretty tables, the harness emits a machine-readable
   [BENCH_RESULTS.json] (benchmark name → ns/run, the scaling-sweep
   timings with exact state-space counts, and the cumulative engine
   counters), then checks the same-run invariants of [invariants] below
   against the values it just measured and exits 1 if any fails.  No
   stored baseline is compared: regressions across changes are measured
   by [perfbench/], with interleaved before/after runs.

   All elapsed times are taken on the OS monotonic clock ([Kpt_obs.now_ns],
   the clock Bechamel samples); never mix [Sys.time]/[Unix.gettimeofday]
   back in.

   [--quick] runs one tiny instance of each P1-P6 benchmark exactly once
   (no statistics, no experiments, no JSON) as an engine smoke test; the
   [bench-smoke] dune alias wires it into [dune runtest].  [--bench-only]
   runs just the Bechamel suite and the sweeps the invariants read,
   writes the JSON and checks the invariants (the CI bench job). *)

open Bechamel
open Kpt_predicate
open Kpt_unity
open Kpt_core
open Kpt_protocols

(* ---- benchmark bodies ---------------------------------------------------- *)
(* Each definition is a [name, setup] pair where [setup ()] performs the
   one-off construction and returns the closure to be measured, so the same
   bodies feed both the Bechamel suite and the --quick smoke run. *)

let def_bdd_ops () =
  fun () ->
    let m = Bdd.create () in
    let acc = ref (Bdd.tru m) in
    for i = 0 to 10 do
      acc := Bdd.and_ m !acc (Bdd.or_ m (Bdd.var m i) (Bdd.nvar m (i + 1)))
    done;
    ignore (Bdd.exists m (Bdd.cube m [ 0; 2; 4; 6 ]) !acc)

let def_bitvec () =
  fun () ->
    let m = Bdd.create () in
    let a = Bitvec.of_bits (Array.init 8 (fun k -> Bdd.var m k)) in
    let b = Bitvec.of_bits (Array.init 8 (fun k -> Bdd.var m (8 + k))) in
    ignore (Bitvec.lt m (Bitvec.add m a b) (Bitvec.const m ~width:9 300))

let bubble n maxv =
  let sp = Space.create () in
  let arr = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:maxv) in
  let stmts =
    List.init (n - 1) (fun i ->
        Stmt.make
          ~name:(Printf.sprintf "swap%d" i)
          ~guard:Expr.(var arr.(i) >>> var arr.(i + 1))
          [ (arr.(i), Expr.var arr.(i + 1)); (arr.(i + 1), Expr.var arr.(i)) ])
  in
  (sp, Program.make sp ~name:"bsort" ~init:Expr.tru stmts)

let def_si size () =
  fun () ->
    let _, prog = bubble size 3 in
    ignore (Program.si prog)

(* The budget-overhead pair: the identical SI workload with and without
   a (generous, never-tripping) armed budget.  The only difference is
   the checkpoint polls inside [Program.sst] and [Bdd.fresh_node], so
   the P8 ratio measures the robustness layer's tax; an invariant pins
   it below 5% within the same run. *)
let generous_budget =
  Budget.limits
    ~timeout_ns:(Budget.timeout_of_seconds 3600.0)
    ~fuel:max_int ~max_nodes:max_int ()

let def_si_budgeted size () =
  fun () ->
    Engine.with_budget generous_budget (fun () ->
        let _, prog = bubble size 3 in
        ignore (Program.si prog))

let def_knowledge () =
  let st = Seqtrans.standard ~lossy:true { Seqtrans.n = 2; a = 2 } in
  let _ = Program.si st.Seqtrans.sprog in
  fun () -> ignore (Seqtrans.real_kr st ~k:0 ~alpha:1)

let def_common_knowledge () =
  let sp = Space.create () in
  let a = Space.bool_var sp "a" in
  let b = Space.bool_var sp "b" in
  let c = Space.bool_var sp "c" in
  let g =
    [ Process.make "A" [ a; b ]; Process.make "B" [ b; c ]; Process.make "C" [ c; a ] ]
  in
  let m = Space.manager sp in
  let si = Bdd.or_ m (Bdd.var m (List.hd (Space.current_bits a))) (Bdd.tru m) in
  let p = Bdd.and_ m (Expr.compile_bool sp (Expr.var a)) (Expr.compile_bool sp (Expr.var b)) in
  fun () -> ignore (Knowledge.common_knowledge sp ~si g p)

let def_kbp_solver () =
  fun () ->
    let sp = Space.create () in
    let x = Space.bool_var sp "x" in
    let y = Space.bool_var sp "y" in
    let z = Space.bool_var sp "z" in
    let p0 = Process.make "P0" [ y ] in
    let p1 = Process.make "P1" [ z ] in
    let s0 =
      Kbp.kstmt ~name:"s0" ~guard:(Kform.k "P0" (Kform.base (Expr.var x))) [ (y, Expr.tru) ]
    in
    let s1 =
      Kbp.kstmt ~name:"s1"
        ~guard:(Kform.k "P1" (Kform.knot (Kform.base (Expr.var y))))
        [ (z, Expr.tru) ]
    in
    let kbp =
      Kbp.make sp ~name:"fig2" ~init:Expr.(not_ (var y)) ~processes:[ p0; p1 ] [ s0; s1 ]
    in
    ignore (Kbp.solutions kbp)

let def_leadsto () =
  let ab = Seqtrans.abstract_kbp { Seqtrans.n = 2; a = 2 } in
  let _ = Program.si ab.Seqtrans.aprog in
  fun () -> ignore (Seqtrans.a_spec_liveness_holds ab ~k:0)

let def_simulation ~steps () =
  let st = Seqtrans.standard ~lossy:true { Seqtrans.n = 2; a = 2 } in
  let rng = Stdlib.Random.State.make [| 3 |] in
  let init = Kpt_runs.Exec.random_init st.Seqtrans.sprog rng in
  fun () ->
    ignore
      (Kpt_runs.Exec.run st.Seqtrans.sprog ~scheduler:(Kpt_runs.Exec.Random_fair 5) ~steps
         ~init)

let def_proof_replay () =
  let ab = Seqtrans.abstract_kbp { Seqtrans.n = 2; a = 2 } in
  let _ = Program.si ab.Seqtrans.aprog in
  fun () -> ignore (Seqtrans_proofs.replay_abstract ab)

(* The `kpt check` batch corpus: every example spec when the benchmark
   runs from the repository root (the CI layout), else a synthetic
   stand-in so the scenario never silently disappears.  Each file is a
   full front-to-back pipeline run (lint + elaborate + solve + stats);
   files are independent, which is exactly the shape [Kpt_par] exists
   for, so jobs=1 vs jobs=4 below measures the pool's speedup on
   multi-core hosts (on a single-core host the two coincide). *)
let check_corpus =
  lazy
    (let dir = "examples/specs" in
     let read path =
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () -> really_input_string ic (in_channel_length ic))
     in
     if Sys.file_exists dir && Sys.is_directory dir then
       Sys.readdir dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".unity")
       |> List.sort compare
       |> List.map (fun n -> (Filename.concat dir n, read (Filename.concat dir n)))
     else
       (* not run from the repo root: a small synthetic corpus instead *)
       List.init 8 (fun i ->
           ( Printf.sprintf "synthetic%d.unity" i,
             "program flip\n" ^ "var a, b : bool\n" ^ "processes P = { a, b }\n"
             ^ "init ~a /\\ ~b\n" ^ "assign\n" ^ "  set: a := true if ~a\n"
             ^ "| ack: b := true if a /\\ ~b\n" )))

let def_check_batch ~jobs () =
  let corpus = Lazy.force check_corpus in
  fun () -> ignore (Kpt_analysis.Check.reports ~jobs corpus)

(* The [kpt lint] corpus, syntactic tier against the full semantic tier
   (KPT1xx under the default analysis budget): the pair prices what the
   budgeted SI/wcyl passes add on top of the free structural checks. *)
let def_lint_batch ~semantic () =
  let corpus = Lazy.force check_corpus in
  fun () ->
    List.iter
      (fun (file, src) ->
        ignore
          (if semantic then Kpt_analysis.Lint.lint_source_semantic ~file src
           else Kpt_analysis.Lint.lint_source ~file src))
      corpus

(* The serve-daemon triple (P11): the same `kpt check` request priced
   three ways.  Cold is a full process spawn of the real binary (what a
   user without a daemon pays — parse the CLI, build the engine, run,
   exit); warm is the daemon's handler on a long-lived process with the
   cache disabled (the request still runs end to end, but the process,
   allocator and code are hot); cached is the handler with the cache
   primed (a content-hash lookup plus a string ship).  An invariant pins
   cached < warm < cold within the same run — the whole point of the
   daemon. *)
let serve_request () =
  let corpus = Lazy.force check_corpus in
  let file =
    match
      List.find_opt (fun (p, _) -> Filename.basename p = "transmit.unity") corpus
    with
    | Some f -> f
    | None -> List.hd corpus
  in
  {
    Kpt_serve.Protocol.id = 0;
    cmd = Kpt_serve.Protocol.Check;
    files = [ file ];
    opts = { Kpt_analysis.Driver.default_options with quiet = true };
  }

(* the built binary, when the bench runs where it can see one *)
let kpt_exe =
  lazy
    (List.find_opt Sys.file_exists
       [
         "_build/default/bin/kpt.exe";
         Filename.concat (Filename.dirname Sys.executable_name) "../bin/kpt.exe";
       ])

let def_serve_cold () =
  let exe = Option.get (Lazy.force kpt_exe) in
  let file, _ = List.hd (serve_request ()).Kpt_serve.Protocol.files in
  let cmd = Filename.quote_command exe [ "check"; file; "-q"; "--reorder=off" ] in
  fun () -> ignore (Sys.command cmd)

let def_serve_warm () =
  let handler = Kpt_serve.Handler.create ~cache_size:0 in
  let req = serve_request () in
  fun () -> ignore (Kpt_serve.Handler.handle handler req)

let def_serve_cached () =
  let handler = Kpt_serve.Handler.create ~cache_size:8 in
  let req = serve_request () in
  ignore (Kpt_serve.Handler.handle handler req);
  fun () -> ignore (Kpt_serve.Handler.handle handler req)

(* cold only exists where the binary and the on-disk spec do: the repo
   root (the CI layout).  Elsewhere the warm/cached pair still runs on
   the synthetic corpus, and the P11 invariant fails on the missing cold
   row. *)
let p11_cold = "P11 serve: cold process, check transmit"
let p11_warm = "P11 serve: warm request, check transmit"
let p11_cached = "P11 serve: cached request, check transmit"

let serve_cold_defs =
  match Lazy.force kpt_exe with
  | Some _ when Sys.file_exists "examples/specs/transmit.unity" ->
      [ (p11_cold, def_serve_cold) ]
  | _ -> []

(* the rows the same-run invariants compare *)
let p9_syntactic = "P9 lint batch: examples corpus, syntactic tier"
let p9_semantic = "P9 lint batch: examples corpus, semantic tier"

let benchmark_defs =
  [
    ("P1 bdd: n-queens-style conjunctions (12 vars)", def_bdd_ops);
    ("P1 bitvec: 8-bit symbolic adder + comparison", def_bitvec);
    ("P2 SI fixpoint: bubble sort n=4", def_si 4);
    ("P2 SI fixpoint: bubble sort n=5", def_si 5);
    ("P3 K_i on the standard protocol (n=2,|A|=2)", def_knowledge);
    ("P3 common knowledge fixpoint (3 agents)", def_common_knowledge);
    ("P4 exhaustive KBP solver on Figure 2 (256 candidates)", def_kbp_solver);
    ("P5 fair leads-to on the abstract KBP (n=2,|A|=2)", def_leadsto);
    ("P6 concrete simulation: 1000 steps of the standard protocol", def_simulation ~steps:1000);
    ("P6 full kernel replay of the Figure-3 proof", def_proof_replay);
    ("P7 kpt check batch: examples corpus, jobs=1", def_check_batch ~jobs:1);
    ("P7 kpt check batch: examples corpus, jobs=4", def_check_batch ~jobs:4);
    ("P8 budget overhead: SI fixpoint n=4, unbudgeted", def_si 4);
    ("P8 budget overhead: SI fixpoint n=4, budget armed", def_si_budgeted 4);
    (p9_syntactic, def_lint_batch ~semantic:false);
    (p9_semantic, def_lint_batch ~semantic:true);
  ]
  @ serve_cold_defs
  @ [ (p11_warm, def_serve_warm); (p11_cached, def_serve_cached) ]

(* ---- machine-readable results -------------------------------------------- *)

(* Elapsed-time measurement on the OS monotonic clock — the same clock
   Bechamel samples.  [Sys.time] (CPU time) undercounts anything that
   blocks and [Unix.gettimeofday] (wall time) is subject to adjustment;
   neither belongs in a benchmark. *)
let time f =
  let t0 = Kpt_obs.now_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Kpt_obs.now_ns ()) t0) /. 1e9)

let bench_ns : (string * float) list ref = ref []

(* filled by the P12 serve-concurrency sweep below; lands as its own
   JSON section and feeds the P12 invariant *)
type serve_conc = {
  sc_cores : int;
  sc_requests : int;
  sc_seq_s : float;
  sc_jobs4_s : float;
  sc_chaos_s : float;
  sc_injections : int;
  sc_identical : bool;
}

let serve_conc : serve_conc option ref = ref None

let speedup s = if s.sc_jobs4_s > 0.0 then s.sc_seq_s /. s.sc_jobs4_s else 0.0

(* (full, sliced) BDD nodes allocated by the P10 slice ablation *)
let slice_nodes : (int * int) option ref = ref None

(* armed / unbudgeted time of the interleaved P8 pair *)
let budget_ratio : float option ref = ref None

(* family, n, |A|, state space, reachable, SI s, safety s, and — for the
   seqtrans rows — the total time of liveness (35)@k over every k < n *)
let scaling_rows :
    (string * int * int * Bigcount.t * int * float * float * float option) list ref =
  ref []

let json_string s = Json.to_string (Json.String s)

let write_json path =
  let oc = open_out path in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n  \"benchmarks_ns_per_run\": {\n";
  List.iteri
    (fun i (name, ns) ->
      pf "    %s: %.1f%s\n" (json_string name) ns
        (if i = List.length !bench_ns - 1 then "" else ","))
    (List.rev !bench_ns);
  pf "  },\n  \"scaling_standard_protocol\": [\n";
  let rows = List.rev !scaling_rows in
  List.iteri
    (fun i (family, n, a, total, reach, t_si, t_safe, t_live) ->
      pf
        "    { \"family\": %s, \"n\": %d, \"a\": %d, \"state_space\": %s, \
         \"reachable\": %d, \"si_s\": %.4f, \"safety_s\": %.4f%s }%s\n"
        (json_string family) n a (Bigcount.to_string total) reach t_si t_safe
        (match t_live with Some t -> Printf.sprintf ", \"liveness_s\": %.4f" t | None -> "")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pf "  ],\n";
  (match !serve_conc with
  | None -> ()
  | Some s ->
      pf
        "  \"serve_concurrency\": { \"cores\": %d, \"requests\": %d, \"seq_s\": %.4f, \
         \"jobs4_s\": %.4f, \"chaos_s\": %.4f, \"speedup\": %.3f, \
         \"chaos_injections\": %d, \"bytes_identical\": %b },\n"
        s.sc_cores s.sc_requests s.sc_seq_s s.sc_jobs4_s s.sc_chaos_s (speedup s)
        s.sc_injections s.sc_identical);
  (* cumulative engine counters over the whole run, so CI can watch the
     work profile (cache hit rates, fixpoint depths) alongside the times *)
  pf "  \"counters\": {\n";
  let cs = Kpt_obs.counters () in
  List.iteri
    (fun i (name, v) ->
      pf "    %s: %d%s\n" (json_string name) v
        (if i = List.length cs - 1 then "" else ","))
    cs;
  pf "  }\n}\n";
  close_out oc;
  Format.printf "@.Machine-readable results written to %s@." path

(* ---- benchmark runners --------------------------------------------------- *)

let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  Format.printf "@.══ Performance benchmarks (P1-P6) ══@.";
  List.iter
    (fun (name, setup) ->
      let test = Test.make ~name (Staged.stage (setup ())) in
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          match Analyze.one ols instance raw with
          | ols_result -> (
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] ->
                  bench_ns := (name, est) :: !bench_ns;
                  Format.printf "  %-60s %12.1f ns/run@." name est
              | _ -> Format.printf "  %-60s (no estimate)@." name)
          | exception _ -> Format.printf "  %-60s (failed)@." name)
        results)
    benchmark_defs

let quick_defs =
  [
    ("P1 bdd: n-queens-style conjunctions (12 vars)", def_bdd_ops);
    ("P1 bitvec: 8-bit symbolic adder + comparison", def_bitvec);
    ("P2 SI fixpoint: bubble sort n=3", def_si 3);
    ("P3 K_i on the standard protocol (n=2,|A|=2)", def_knowledge);
    ("P3 common knowledge fixpoint (3 agents)", def_common_knowledge);
    ("P4 exhaustive KBP solver on Figure 2 (256 candidates)", def_kbp_solver);
    ("P5 fair leads-to on the abstract KBP (n=2,|A|=2)", def_leadsto);
    ("P6 concrete simulation: 100 steps of the standard protocol", def_simulation ~steps:100);
    ("P7 kpt check batch: examples corpus, jobs=2", def_check_batch ~jobs:2);
    ("P8 budget overhead: SI fixpoint n=3, budget armed", def_si_budgeted 3);
    (p9_semantic, def_lint_batch ~semantic:true);
    (p11_warm, def_serve_warm);
    (p11_cached, def_serve_cached);
  ]

(* One tiny run of each engine; a crash or hang here is a tier-1 failure. *)
let run_quick () =
  Format.printf "══ bench-smoke: one tiny instance of each P1-P6 benchmark ══@.";
  List.iter
    (fun (name, setup) ->
      let (), dt =
        time (fun () ->
            let fn = setup () in
            fn ())
      in
      Format.printf "  %-62s ok (%.3fs)@." name dt)
    quick_defs;
  Format.printf "bench-smoke: all engines ran.@."

(* ---- Part 3: scaling sweeps and ablations -------------------------------- *)

let scaling_sweep () =
  Format.printf "@.══ Scaling: the standard protocol across (n, |A|) ══@.";
  Format.printf "  %-10s %12s %12s %14s %14s %14s@." "(n,|A|)" "state space" "reachable"
    "SI time (s)" "safety (s)" "liveness (s)";
  List.iter
    (fun (n, a) ->
      let st = Seqtrans.standard ~lossy:true { Seqtrans.n = n; a } in
      let sp = st.Seqtrans.sspace in
      let total = Space.state_count_exact sp in
      let si, t_si = time (fun () -> Program.si st.Seqtrans.sprog) in
      let reach = Space.count_states_of sp si in
      let ok, t_safe = time (fun () -> Program.invariant st.Seqtrans.sprog (Seqtrans.spec_safety st)) in
      let live, t_live =
        time (fun () -> List.init n (fun k -> Seqtrans.spec_liveness_holds st ~k))
      in
      scaling_rows :=
        ("seqtrans", n, a, total, reach, t_si, t_safe, Some t_live) :: !scaling_rows;
      Format.printf "  (%d,%d)      %12s %12d %14.3f %14.3f %14.3f   safety=%b liveness=%b@." n a
        (Bigcount.to_string total) reach t_si t_safe t_live ok (List.for_all Fun.id live))
    [ (2, 2); (2, 3); (3, 2) ]

let ring_sweep () =
  Format.printf "@.══ Scaling: token rings n = 3..10 (auto-reorder) ══@.";
  Format.printf "  %-10s %12s %12s %14s %14s@." "n" "state space" "reachable" "SI time (s)"
    "mutex (s)";
  List.iter
    (fun n ->
      let eng = Engine.create () in
      Engine.set_reorder_mode eng (Some Engine.Reorder_auto);
      Engine.use eng (fun () ->
          let r = Ring.token_ring ~n in
          let sp = r.Ring.rspace in
          let total = Space.state_count_exact sp in
          let si, t_si = time (fun () -> Program.si r.Ring.rprog) in
          let reach = Space.count_states_of sp si in
          let ok, t_safe =
            time (fun () -> Program.invariant r.Ring.rprog (Ring.mutex_ok r))
          in
          scaling_rows := ("token_ring", n, 2, total, reach, t_si, t_safe, None) :: !scaling_rows;
          Format.printf "  %-10d %12s %12d %14.3f %14.3f   mutex=%b@." n
            (Bigcount.to_string total) reach t_si t_safe ok))
    [ 3; 4; 5; 6; 7; 8; 9; 10 ]

let window_sweep () =
  Format.printf "@.══ Scaling: sliding window pipelining (n = 4, duplicating channel) ══@.";
  Format.printf "  %-8s %18s@." "window" "mean steps to done";
  List.iter
    (fun w ->
      let t = Window.make ~lossy:false ~window:w { Seqtrans.n = 4; a = 2 } in
      let total = ref 0 in
      for seed = 1 to 10 do
        total := !total + Window.simulate_steps ~seed t
      done;
      Format.printf "  %-8d %18.1f@." w (float_of_int !total /. 10.))
    [ 1; 2; 3; 4 ]

let ablation_solver () =
  Format.printf "@.══ Ablation: exhaustive vs chaotic-iteration KBP solving ══@.";
  let build strong =
    let sp = Space.create () in
    let x = Space.bool_var sp "x" in
    let y = Space.bool_var sp "y" in
    let z = Space.bool_var sp "z" in
    let p0 = Process.make "P0" [ y ] in
    let p1 = Process.make "P1" [ z ] in
    let init = if strong then Expr.(not_ (var y) &&& var x) else Expr.(not_ (var y)) in
    Kbp.make sp ~name:"fig2" ~init ~processes:[ p0; p1 ]
      [
        Kbp.kstmt ~name:"s0" ~guard:(Kform.k "P0" (Kform.base (Expr.var x))) [ (y, Expr.tru) ];
        Kbp.kstmt ~name:"s1"
          ~guard:(Kform.k "P1" (Kform.knot (Kform.base (Expr.var y))))
          [ (z, Expr.tru) ];
      ]
  in
  List.iter
    (fun strong ->
      let kbp = build strong in
      let sols, t_ex = time (fun () -> Kbp.solutions kbp) in
      let it, t_it = time (fun () -> Kbp.solve kbp) in
      let it_desc =
        match it with
        | Kbp.Converged { steps; _ } -> Printf.sprintf "converged in %d Ĝ-steps" steps
        | Kbp.Diverged { orbit; _ } ->
            Printf.sprintf "cycled (period %d)" (List.length orbit)
        | Kbp.Budget_exhausted { reason; _ } ->
            Printf.sprintf "budget exhausted (%s)" (Budget.reason_to_string reason)
      in
      Format.printf "  figure2%s: exhaustive %d solution(s) in %.4fs; iteration %s in %.4fs@."
        (if strong then "-strong" else "") (List.length sols) t_ex it_desc t_it;
      Format.printf "    → iteration is the cheap semi-decision; enumeration is the complete one.@.")
    [ false; true ]

(* Wall-clock speedup of the [kpt check] batch across pool sizes.  The
   per-task work is identical (fresh engine each task, deterministic
   output), so any ratio > 1 is pure parallelism; expect ~min(jobs,
   cores, files) on a quiet multi-core host and ~1.0 on a single core. *)
let check_speedup () =
  Format.printf "@.══ Parallel speedup: kpt check over the examples corpus ══@.";
  let corpus = Lazy.force check_corpus in
  Format.printf "  %d file(s); host reports %d core(s)@." (List.length corpus)
    (Domain.recommended_domain_count ());
  let t1 = ref 0.0 in
  List.iter
    (fun jobs ->
      let _, t = time (fun () -> Kpt_analysis.Check.reports ~jobs corpus) in
      if jobs = 1 then t1 := t;
      Format.printf "  jobs=%-2d  %8.3fs   speedup ×%.2f@." jobs t
        (if t > 0.0 then !t1 /. t else 0.0))
    [ 1; 2; 4 ]

(* The P8 pair again, as interleaved pairs.  Bechamel measures the two
   rows seconds apart, and on a shared host that drift alone moves their
   ratio by more than the 5% the invariant allows.  Timing the two sides
   back to back (in alternating order) cancels the drift within a pair,
   and the median over the pairs drops the outliers. *)
let budget_overhead () =
  Format.printf "@.══ P8 budget overhead: interleaved pairs ══@.";
  let plain = def_si 4 () and armed = def_si_budgeted 4 () in
  let batch f = snd (time (fun () -> for _ = 1 to 20 do f () done)) in
  let pairs = 101 in
  let ratios =
    Array.init pairs (fun i ->
        if i land 1 = 0 then
          let p = batch plain in
          batch armed /. p
        else
          let a = batch armed in
          a /. batch plain)
  in
  Array.sort Float.compare ratios;
  let ratio = ratios.(pairs / 2) in
  budget_ratio := Some ratio;
  Format.printf "  median armed/unbudgeted over %d pairs of 20-run batches: ×%.3f@." pairs ratio

(* Cone-of-influence slicing on the monitored ring (P10): the audit log
   lies outside the cone of the mutual-exclusion property, so the sliced
   SI fixpoint never touches its bits.  The final SI BDDs are NOT
   comparable by size — the full run saturates the log over all values
   (making SI log-independent) while the slice freezes it at its initial
   value — so the reduction is measured as fixpoint WORK: total BDD
   nodes allocated to compute SI, each side on a fresh manager.  Both
   totals land in the counters section of BENCH_RESULTS.json, and an
   invariant pins sliced < full. *)
let slice_ablation () =
  Format.printf "@.══ Ablation: cone-of-influence slicing on the monitored ring (n=8) ══@.";
  let work ~slice =
    let r = Ring.monitored ~n:8 in
    let prog = r.Ring.rprog in
    let prog, dropped =
      if slice then
        let prog', info = Kpt_analysis.Slice.program ~wrt:[ Ring.mutex_ok r ] prog in
        (prog', List.length info.Kpt_analysis.Slice.dropped)
      else (prog, 0)
    in
    let si, t = time (fun () -> Program.si prog) in
    let nodes = (Bdd.stats (Space.manager r.Ring.rspace)).Bdd.nodes_created in
    (Space.count_states_of r.Ring.rspace si, dropped, nodes, t)
  in
  let full_states, _, full_nodes, t_full = work ~slice:false in
  let sliced_states, dropped, sliced_nodes, t_sliced = work ~slice:true in
  slice_nodes := Some (full_nodes, sliced_nodes);
  Kpt_obs.record_max (Kpt_obs.counter "slice.bench.nodes_created.full") full_nodes;
  Kpt_obs.record_max (Kpt_obs.counter "slice.bench.nodes_created.sliced") sliced_nodes;
  Format.printf "  full run  : SI over %7d state(s) in %.3fs, %8d node(s) allocated@."
    full_states t_full full_nodes;
  Format.printf
    "  sliced    : SI over %7d state(s) in %.3fs, %8d node(s) allocated (%d statement(s) \
     dropped)@."
    sliced_states t_sliced sliced_nodes dropped;
  Format.printf "  → identical verdict on the property, ×%.2f the allocation work avoided@."
    (float_of_int full_nodes /. float_of_int (max 1 sliced_nodes))

(* The serve-concurrency triple (P12): the same request stream served by
   a jobs=1 daemon to one client, by a jobs=4 daemon to four concurrent
   clients, and by a jobs=4 daemon to four clients while a chaos
   injector slams the same socket with truncated frames, garbage lines
   and instant disconnects.  Real daemon domains over a real Unix
   socket, result cache off so every request computes.  The P12
   invariant requires the served bytes to be identical across all three
   legs (per request, against the sequential leg), the chaos leg to
   complete with its well-behaved clients unharmed, and on a ≥4-core
   host the 4-worker leg to be ≥2× the sequential one (single-core hosts
   record the ratio but skip the floor — there is no parallelism to buy
   there). *)
let serve_concurrency_sweep () =
  Format.printf "@.══ P12 serve concurrency: --serve-jobs under concurrent clients ══@.";
  let corpus = Lazy.force check_corpus in
  let n_requests = 40 in
  let reqs =
    List.init n_requests (fun i ->
        {
          Kpt_serve.Protocol.id = i + 1;
          cmd = Kpt_serve.Protocol.Check;
          files = [ List.nth corpus (i mod List.length corpus) ];
          opts = { Kpt_analysis.Driver.default_options with quiet = true };
        })
  in
  let with_daemon ~tag ~jobs f =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "kpt-bench-%d-%s.sock" (Unix.getpid ()) tag)
    in
    if Sys.file_exists path then Sys.remove path;
    let cfg = Kpt_serve.Server.config ~jobs ~socket_path:path ~cache_size:0 () in
    let d = Domain.spawn (fun () -> Kpt_serve.Server.run ~announce:false cfg) in
    let rec wait n =
      if n = 0 then failwith "bench daemon never bound its socket"
      else
        match Kpt_serve.Client.connect ~socket:path with
        | Ok c -> Kpt_serve.Client.close c
        | Error _ ->
            Unix.sleepf 0.02;
            wait (n - 1)
    in
    wait 250;
    let r = f path in
    ignore
      (Kpt_serve.Client.roundtrip ~socket:path
         {
           Kpt_serve.Protocol.id = 0;
           cmd = Kpt_serve.Protocol.Shutdown;
           files = [];
           opts = Kpt_analysis.Driver.default_options;
         });
    ignore (Domain.join d);
    r
  in
  let fetch path req =
    match Kpt_serve.Client.roundtrip ~socket:path req with
    | Ok (Kpt_serve.Protocol.Result { exit_code; out; _ }) -> (exit_code, out)
    | Ok _ -> (-1, "unexpected frame")
    | Error msg -> (-1, "transport: " ^ msg)
  in
  (* deal request i to client (i mod clients); reassemble in id order so
     the legs compare like for like *)
  let run_clients path clients =
    List.init clients (fun c ->
        let mine = List.filteri (fun i _ -> i mod clients = c) reqs in
        Domain.spawn (fun () ->
            List.map (fun r -> (r.Kpt_serve.Protocol.id, fetch path r)) mine))
    |> List.concat_map Domain.join
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let seq_replies, seq_s =
    with_daemon ~tag:"seq" ~jobs:1 (fun path -> time (fun () -> run_clients path 1))
  in
  let par_replies, jobs4_s =
    with_daemon ~tag:"par" ~jobs:4 (fun path -> time (fun () -> run_clients path 4))
  in
  let (chaos_replies, injections), chaos_s =
    with_daemon ~tag:"chaos" ~jobs:4 (fun path ->
        time (fun () ->
            let injector =
              Domain.spawn (fun () ->
                  Kpt_serve.Chaos.noise ~socket:path ~seed:23L ~rounds:30)
            in
            let replies = run_clients path 4 in
            (replies, Domain.join injector)))
  in
  let identical = seq_replies = par_replies && seq_replies = chaos_replies in
  let cores = Domain.recommended_domain_count () in
  let sc =
    {
      sc_cores = cores;
      sc_requests = n_requests;
      sc_seq_s = seq_s;
      sc_jobs4_s = jobs4_s;
      sc_chaos_s = chaos_s;
      sc_injections = injections;
      sc_identical = identical;
    }
  in
  serve_conc := Some sc;
  Format.printf "  %d request(s); host reports %d core(s)@." n_requests cores;
  Format.printf "  jobs=1, 1 client             %8.3fs@." seq_s;
  Format.printf "  jobs=4, 4 clients            %8.3fs   speedup ×%.2f@." jobs4_s (speedup sc);
  Format.printf "  jobs=4, 4 clients + chaos    %8.3fs   (%d injection(s))@." chaos_s
    injections;
  Format.printf "  served bytes identical across legs: %b@." identical

let ablation_relprod () =
  Format.printf "@.══ Ablation: fused relational product vs and-then-exists ══@.";
  let m = Bdd.create () in
  (* a chained relation over 24 variables *)
  let rel =
    Bdd.conj m
      (List.init 11 (fun i -> Bdd.iff m (Bdd.var m (2 * i)) (Bdd.var m ((2 * i) + 2))))
  in
  let p = Bdd.conj m (List.init 6 (fun i -> Bdd.var m (4 * i))) in
  let vars = Bdd.cube m (List.init 12 (fun i -> 2 * i)) in
  let fused, t_f =
    time (fun () ->
        let r = ref (Bdd.fls m) in
        for _ = 1 to 200 do
          Bdd.clear_caches m;
          r := Bdd.and_exists m vars p rel
        done;
        !r)
  in
  let naive, t_n =
    time (fun () ->
        let r = ref (Bdd.fls m) in
        for _ = 1 to 200 do
          Bdd.clear_caches m;
          r := Bdd.exists m vars (Bdd.and_ m p rel)
        done;
        !r)
  in
  Format.printf "  fused and_exists : %.4fs   and-then-exists : %.4fs   (same result: %b)@."
    t_f t_n (Bdd.equal fused naive)

(* ---- same-run invariants ------------------------------------------------- *)

(* What a bench run must show about itself, read from the values it just
   measured — never from a stored baseline, whose ns/run figures drift
   with noise and binary layout by more than any tolerance could absorb.
   Every rule requires its data: a row or sweep the run failed to produce
   is a FAIL, never a skip.  Each rule returns (holds, detail). *)

let need what v k = match v with Some x -> k x | None -> (false, what ^ " is missing")
let row name = need (Printf.sprintf "row %S" name) (List.assoc_opt name !bench_ns)

let serve_concurrency_rule () =
  need "the P12 sweep" !serve_conc @@ fun s ->
  let broken =
    List.filter_map
      (fun (bad, what) -> if bad then Some what else None)
      [
        (s.sc_requests <= 0, "no request served");
        (not s.sc_identical, "served bytes differ across legs");
        (s.sc_injections <= 0, "no chaos injection delivered");
        (not (Float.is_finite s.sc_chaos_s && s.sc_chaos_s > 0.0), "chaos leg has no wall time");
        (s.sc_cores >= 4 && speedup s < 2.0, "jobs=4 is below ×2 on a ≥4-core host");
      ]
  in
  ( broken = [],
    String.concat "; "
      (Printf.sprintf "%d request(s), %d injection(s), ×%.2f on %d core(s)" s.sc_requests
         s.sc_injections (speedup s) s.sc_cores
      :: broken) )

let invariants =
  [
    ( "every benchmark row has an estimate",
      fun () ->
        let missing = List.filter (fun (n, _) -> not (List.mem_assoc n !bench_ns)) benchmark_defs in
        ( missing = [],
          if missing = [] then Printf.sprintf "%d row(s)" (List.length benchmark_defs)
          else "no estimate for " ^ String.concat ", " (List.map fst missing) ) );
    ( "P8 budget armed ≤ 1.05 × unbudgeted",
      fun () ->
        need "the interleaved P8 pair" !budget_ratio @@ fun ratio ->
        (ratio <= 1.05, Printf.sprintf "×%.3f" ratio) );
    ( "P9 both lint rows present",
      fun () -> row p9_syntactic @@ fun _ -> row p9_semantic @@ fun _ -> (true, "both tiers") );
    ( "P10 sliced nodes < full nodes",
      fun () ->
        need "the slice ablation" !slice_nodes @@ fun (full, sliced) ->
        (sliced < full, Printf.sprintf "%d vs %d node(s)" sliced full) );
    ( "P11 cached < warm < cold",
      fun () ->
        row p11_cold @@ fun cold ->
        row p11_warm @@ fun warm ->
        row p11_cached @@ fun cached ->
        (cached < warm && warm < cold, Printf.sprintf "%.0f, %.0f, %.0f ns/run" cached warm cold)
    );
    ("P12 serve legs agree under chaos", serve_concurrency_rule);
    ( "scaling sweep has ≥ 6 rows",
      fun () ->
        let n = List.length !scaling_rows in
        (n >= 6, Printf.sprintf "%d row(s)" n) );
    ( "every seqtrans row has a finite liveness_s",
      fun () ->
        let rows = List.filter (fun (f, _, _, _, _, _, _, _) -> f = "seqtrans") !scaling_rows in
        let timed (_, _, _, _, _, _, _, t) =
          match t with Some t -> Float.is_finite t | None -> false
        in
        ( rows <> [] && List.for_all timed rows,
          Printf.sprintf "%d of %d row(s)" (List.length (List.filter timed rows)) (List.length rows) ) );
  ]

(* prints one line per rule; true when every rule holds *)
let check_invariants () =
  Format.printf "@.══ Same-run invariants ══@.";
  List.fold_left
    (fun all_ok (name, rule) ->
      let ok, detail = rule () in
      Format.printf "bench invariant: %s %s — %s@." name (if ok then "ok" else "FAIL") detail;
      all_ok && ok)
    true invariants

let () =
  if Array.exists (( = ) "--quick") Sys.argv then run_quick ()
  else if Array.exists (( = ) "--bench-only") Sys.argv then begin
    (* the CI bench job: the Bechamel suite plus exactly the sweeps the
       invariants read, no experiments or timing-only ablations *)
    run_benchmarks ();
    scaling_sweep ();
    ring_sweep ();
    budget_overhead ();
    slice_ablation ();
    serve_concurrency_sweep ();
    write_json "BENCH_RESULTS.json";
    if not (check_invariants ()) then exit 1
  end
  else begin
    Format.printf "════ kpt: paper experiments (E1-E9) ════@.";
    let verdicts = Kpt_experiments.Experiments.run_all Format.std_formatter in
    Format.printf "@.══ Summary ══@.";
    List.iter
      (fun (name, ok) -> Format.printf "  %-18s %s@." name (if ok then "REPRODUCED" else "MISMATCH"))
      verdicts;
    let all_ok = List.for_all snd verdicts in
    Format.printf "@.%s@."
      (if all_ok then "All paper claims reproduced." else "SOME CLAIMS DID NOT REPRODUCE!");
    run_benchmarks ();
    scaling_sweep ();
    ring_sweep ();
    check_speedup ();
    budget_overhead ();
    slice_ablation ();
    serve_concurrency_sweep ();
    window_sweep ();
    ablation_solver ();
    ablation_relprod ();
    write_json "BENCH_RESULTS.json";
    let invariants_ok = check_invariants () in
    if not (all_ok && invariants_ok) then exit 1
  end

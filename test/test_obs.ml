(* The observability layer: counters, spans, the event sink, exact
   model counting, and the [kpt stats --json] golden. *)

open Kpt_predicate
open Kpt_analysis

(* ---- counters ------------------------------------------------------------- *)

let test_counters_monotone () =
  Kpt_obs.reset ();
  let c = Kpt_obs.counter "test.obs.monotone" in
  Alcotest.(check int) "starts at zero" 0 (Kpt_obs.value c);
  Kpt_obs.incr c;
  Kpt_obs.incr c;
  Alcotest.(check int) "incr adds one" 2 (Kpt_obs.value c);
  Kpt_obs.add c 40;
  Alcotest.(check int) "add accumulates" 42 (Kpt_obs.value c);
  Kpt_obs.record_max c 17;
  Alcotest.(check int) "record_max of a smaller value is a no-op" 42 (Kpt_obs.value c);
  Kpt_obs.record_max c 99;
  Alcotest.(check int) "record_max raises to the high-water mark" 99 (Kpt_obs.value c)

let test_counters_interned () =
  Kpt_obs.reset ();
  let a = Kpt_obs.counter "test.obs.interned" in
  let b = Kpt_obs.counter "test.obs.interned" in
  Kpt_obs.incr a;
  Alcotest.(check int) "same name, same cell" 1 (Kpt_obs.value b);
  Alcotest.(check (option int))
    "snapshot sees the shared cell" (Some 1)
    (List.assoc_opt "test.obs.interned" (Kpt_obs.counters ()))

let test_counters_snapshot_sorted_and_reset () =
  Kpt_obs.reset ();
  let c = Kpt_obs.counter "test.obs.reset" in
  Kpt_obs.add c 7;
  let names = List.map fst (Kpt_obs.counters ()) in
  Alcotest.(check (list string)) "snapshot is name-sorted" (List.sort compare names) names;
  Kpt_obs.reset ();
  Alcotest.(check int) "reset zeroes the cell but keeps it registered" 0 (Kpt_obs.value c);
  Alcotest.(check bool) "still in the registry" true
    (List.mem_assoc "test.obs.reset" (Kpt_obs.counters ()))

(* The BDD hot counters sit in manager fields during an operation and
   are flushed when the outermost one ends, so between operations
   [bdd.nodes.created] moves exactly as the manager's uid count. *)
let c_created = Kpt_obs.counter "bdd.nodes.created"

let check_nodes_counted msg m f =
  let created () = (Bdd.stats m).Bdd.nodes_created in
  let c0 = Kpt_obs.value c_created and u0 = created () in
  f ();
  let made = created () - u0 in
  Alcotest.(check bool) (msg ^ ": made nodes") true (made > 0);
  Alcotest.(check int) (msg ^ ": every node counted") made (Kpt_obs.value c_created - c0);
  Alcotest.(check bool) (msg ^ ": peak covers them") true
    (Kpt_obs.value (Kpt_obs.counter "bdd.nodes.peak") >= created ())

(* ⋀ (x_i ∨ y_i) with every x above every y has 2^n nodes; its even and
   odd halves have 2^(n/2) each, so their conjunction outgrows a small
   node ceiling long after it starts. *)
let test_counters_flushed_on_budget () =
  let m = Bdd.create () in
  let n = 16 in
  let half r =
    Bdd.conj m
      (List.filter_map
         (fun i -> if i mod 2 = r then Some (Bdd.or_ m (Bdd.var m i) (Bdd.var m (n + i))) else None)
         (List.init n Fun.id))
  in
  let a = half 0 and b = half 1 in
  check_nodes_counted "budget trips mid-and_" m (fun () ->
      match Engine.with_budget (Budget.limits ~max_nodes:1000 ()) (fun () -> Bdd.and_ m a b) with
      | _ -> Alcotest.fail "the node ceiling did not trip"
      | exception Budget.Exhausted _ -> ())

let test_counters_var_cube () =
  let m = Bdd.create () in
  check_nodes_counted "var" m (fun () -> ignore (Bdd.var m 3));
  check_nodes_counted "nvar" m (fun () -> ignore (Bdd.nvar m 5));
  check_nodes_counted "cube" m (fun () -> ignore (Bdd.cube m [ 0; 2; 4; 6 ]))

(* x_i ⇔ y_i with the x block above the y block is exponential; sifting
   interleaves the blocks, minting nodes as it swaps levels. *)
let test_counters_explicit_reorder () =
  let m = Bdd.create () in
  let n = 6 in
  let f =
    Bdd.conj m (List.init n (fun i -> Bdd.iff m (Bdd.var m (2 * i)) (Bdd.var m ((2 * n) + (2 * i)))))
  in
  let runs = Kpt_obs.counter "bdd.reorder.runs" in
  let r0 = Kpt_obs.value runs in
  check_nodes_counted "explicit reorder" m (fun () -> Bdd.reorder m);
  Alcotest.(check int) "one sifting pass" (r0 + 1) (Kpt_obs.value runs);
  Alcotest.(check bool) "sifting shrank the predicate" true (Bdd.size m f < 1 lsl n)

(* The hot-path contract of the domain-safe rework: bumping a counter is
   a bounds-checked array store in the domain-local context — no
   allocation, even though the storage is now per-domain. *)
let test_incr_allocates_nothing () =
  let c = Kpt_obs.counter "test.obs.hotpath" in
  let before = Kpt_obs.value c in
  (* warm up: make sure the context's arrays already cover the slot *)
  Kpt_obs.incr c;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Kpt_obs.incr c;
    Kpt_obs.add c 2;
    Kpt_obs.record_max c i
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "no words allocated on the minor heap" w0 w1;
  Alcotest.(check int) "and the bumps landed" (before + 1 + 30_000) (Kpt_obs.value c)

(* ---- metric contexts -------------------------------------------------------- *)

let test_ctx_isolation_and_merge () =
  let c = Kpt_obs.counter "test.obs.ctx" in
  let peak = Kpt_obs.counter "test.obs.ctx.peak" in
  Kpt_obs.reset ();
  Kpt_obs.add c 5;
  Kpt_obs.record_max peak 10;
  let inner = Kpt_obs.Ctx.create () in
  let v =
    Kpt_obs.Ctx.use inner (fun () ->
        Alcotest.(check int) "fresh context starts at zero" 0 (Kpt_obs.value c);
        Kpt_obs.add c 7;
        Kpt_obs.record_max peak 4;
        ignore (Kpt_obs.time "test.obs.ctx.span" (fun () -> ()));
        Kpt_obs.value c)
  in
  Alcotest.(check int) "bumps inside [use] land in the inner context" 7 v;
  Alcotest.(check int) "outer value is untouched" 5 (Kpt_obs.value c);
  Alcotest.(check (option int))
    "explicit snapshot of the inner context" (Some 7)
    (List.assoc_opt "test.obs.ctx" (Kpt_obs.Ctx.counters inner));
  Alcotest.(check bool) "inner span recorded in the inner context only" true
    (List.exists (fun (n, _, _) -> n = "test.obs.ctx.span") (Kpt_obs.Ctx.spans inner)
    && not (List.exists (fun (n, _, _) -> n = "test.obs.ctx.span") (Kpt_obs.spans ())));
  Kpt_obs.Ctx.merge ~into:(Kpt_obs.Ctx.current ()) inner;
  Alcotest.(check int) "merge sums plain counters" 12 (Kpt_obs.value c);
  Alcotest.(check int) "merge maxes high-watermark counters" 10 (Kpt_obs.value peak);
  Alcotest.(check bool) "merge imports spans" true
    (List.exists (fun (n, _, _) -> n = "test.obs.ctx.span") (Kpt_obs.spans ()))

let test_ctx_sink_is_per_context () =
  let got = ref 0 in
  let inner = Kpt_obs.Ctx.create () in
  Kpt_obs.Ctx.use inner (fun () ->
      Kpt_obs.set_sink (Some (fun _ _ -> incr got));
      if Kpt_obs.enabled () then Kpt_obs.emit "test.obs.ctx.event" []);
  Alcotest.(check bool) "sink does not leak out of the context" false (Kpt_obs.enabled ());
  if Kpt_obs.enabled () then Kpt_obs.emit "test.obs.ctx.event" [];
  Alcotest.(check int) "only the in-context emit was seen" 1 !got

(* ---- the event sink -------------------------------------------------------- *)

(* The contract every emit site relies on: with no sink installed the
   guarded pattern [if enabled () then emit …] runs without allocating,
   so tracing costs nothing when it is off. *)
let test_disabled_sink_allocates_nothing () =
  Kpt_obs.set_sink None;
  Alcotest.(check bool) "disabled" false (Kpt_obs.enabled ());
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    if Kpt_obs.enabled () then Kpt_obs.emit "test.obs.event" [ ("i", i); ("sq", i * i) ]
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "no words allocated on the minor heap" w0 w1

let test_sink_receives_events () =
  let got = ref [] in
  Kpt_obs.set_sink (Some (fun name fields -> got := (name, fields) :: !got));
  Alcotest.(check bool) "enabled" true (Kpt_obs.enabled ());
  if Kpt_obs.enabled () then Kpt_obs.emit "test.obs.event" [ ("a", 1); ("b", 2) ];
  Kpt_obs.set_sink None;
  if Kpt_obs.enabled () then Kpt_obs.emit "test.obs.unseen" [];
  Alcotest.(check int) "exactly the one event sent while enabled" 1 (List.length !got);
  let name, fields = List.hd !got in
  Alcotest.(check string) "event name" "test.obs.event" name;
  Alcotest.(check (list (pair string int))) "event fields" [ ("a", 1); ("b", 2) ] fields

let test_trace_sink_format () =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Kpt_obs.trace_sink ppf "sst.iter" [ ("iteration", 3); ("frontier_states", 12) ];
  Format.pp_print_flush ppf ();
  Alcotest.(check string) "the --trace line format"
    "trace: sst.iter iteration=3 frontier_states=12\n" (Buffer.contents buf)

(* ---- spans ----------------------------------------------------------------- *)

let test_span_nesting () =
  Kpt_obs.reset ();
  let spin () =
    (* something the clock can see without sleeping *)
    let acc = ref 0 in
    for i = 1 to 200_000 do
      acc := !acc + i
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let v =
    Kpt_obs.time "test.outer" (fun () ->
        Kpt_obs.time "test.inner" spin;
        Kpt_obs.time "test.inner" spin;
        17)
  in
  Alcotest.(check int) "time is transparent" 17 v;
  let find name =
    match List.find_opt (fun (n, _, _) -> n = name) (Kpt_obs.spans ()) with
    | Some (_, ns, calls) -> (ns, calls)
    | None -> Alcotest.failf "span %s not recorded" name
  in
  let outer_ns, outer_calls = find "test.outer" in
  let inner_ns, inner_calls = find "test.inner" in
  Alcotest.(check int) "outer called once" 1 outer_calls;
  Alcotest.(check int) "inner accumulated both calls" 2 inner_calls;
  Alcotest.(check bool) "parent total includes nested children" true (outer_ns >= inner_ns);
  Alcotest.(check bool) "totals are non-negative" true (Int64.compare inner_ns 0L >= 0)

(* ---- exact model counting ---------------------------------------------------- *)

let test_bigcount_arithmetic () =
  let open Bigcount in
  Alcotest.(check string) "2^64" "18446744073709551616" (to_string (pow2 64));
  Alcotest.(check string) "2^128" "340282366920938463463374607431768211456"
    (to_string (pow2 128));
  Alcotest.(check string) "123456789 * 987654321" "121932631112635269"
    (to_string (mul_int (of_int 123456789) 987654321));
  Alcotest.(check string) "shift_left is *2^k" (to_string (pow2 67))
    (to_string (shift_left (of_int 8) 64));
  Alcotest.(check bool) "add commutes with to_string" true
    (equal (add (pow2 64) one) (add one (pow2 64)));
  Alcotest.(check (option int)) "to_int round-trips small values" (Some 123456789)
    (to_int (of_int 123456789));
  Alcotest.(check (option int)) "to_int refuses 2^64" None (to_int (pow2 64));
  Alcotest.(check int) "compare orders by magnitude" (-1)
    (compare (pow2 64) (add (pow2 64) one))

(* brute force: evaluate the BDD on all 2^nvars assignments *)
let brute_count ~nvars p =
  let total = ref 0 in
  for a = 0 to (1 lsl nvars) - 1 do
    if Bdd.eval p (fun i -> (a lsr i) land 1 = 1) then incr total
  done;
  !total

let random_bdd m rng ~nvars =
  let rec go depth =
    if depth = 0 then
      let v = Random.State.int rng nvars in
      if Random.State.bool rng then Bdd.var m v else Bdd.nvar m v
    else
      let l = go (depth - 1) and r = go (depth - 1) in
      match Random.State.int rng 4 with
      | 0 -> Bdd.and_ m l r
      | 1 -> Bdd.or_ m l r
      | 2 -> Bdd.xor m l r
      | _ -> Bdd.imp m l r
  in
  go 5

let test_satcount_exact_vs_brute () =
  let rng = Random.State.make [| 0x5eed |] in
  let m = Bdd.create () in
  for _ = 1 to 25 do
    let nvars = 4 + Random.State.int rng 9 (* 4..12 *) in
    let p = random_bdd m rng ~nvars in
    let expected = brute_count ~nvars p in
    (match Bigcount.to_int (Bdd.sat_count_exact m ~nvars p) with
    | Some n -> Alcotest.(check int) "exact count = brute force" expected n
    | None -> Alcotest.fail "count of a <=12-var predicate overflowed int")
  done;
  (* one larger instance near the satellite's 20-var bound *)
  let nvars = 18 in
  let p = random_bdd m rng ~nvars in
  Alcotest.(check (option int)) "18-var instance"
    (Some (brute_count ~nvars p))
    (Bigcount.to_int (Bdd.sat_count_exact m ~nvars p))

(* The bug the satellite fixes: beyond 2^53 a float mantissa cannot hold
   the count, and beyond ~2^1024 it is not even finite.  The exact
   counter must stay bit-exact in both regimes. *)
let test_satcount_beyond_float_precision () =
  let m = Bdd.create () in
  (* |nvar 0| = 2^63 and the all-ones cube adds one more model, so the
     count is 2^63 + 1 — unrepresentable in a float mantissa *)
  let nvars = 64 in
  let cube = Bdd.conj m (List.init nvars (fun i -> Bdd.var m i)) in
  let p = Bdd.or_ m (Bdd.nvar m 0) cube in
  let exact = Bdd.sat_count_exact m ~nvars p in
  Alcotest.(check string) "2^63 + 1, bit-exact" "9223372036854775809"
    (Bigcount.to_string exact);
  (* 2^2000 overflows the float range entirely; the exact count is a
     603-digit number *)
  let exact_huge = Bdd.sat_count_exact m ~nvars:2000 (Bdd.tru m) in
  Alcotest.(check int) "the exact count has 603 digits" 603
    (String.length (Bigcount.to_string exact_huge));
  Alcotest.(check bool) "and equals 2^2000" true
    (Bigcount.equal exact_huge (Bigcount.pow2 2000))

(* ---- kpt stats ---------------------------------------------------------------- *)

let load_spec path =
  Kpt_syntax.Elaborate.program (Kpt_syntax.Parser.program_of_string (Helpers.slurp path))

(* Golden for [kpt stats --json examples/specs/transmit.unity]: the whole
   profile — exact state space, reachable count, sst fixpoint depth,
   op-cache hit rate, node counts and every counter — is a deterministic
   function of the input file, and this pin makes silent changes to the
   engine's work profile visible in review.  Regenerate with
     dune exec bin/kpt.exe -- stats --json --reorder=off \
       examples/specs/transmit.unity > test/golden/stats_transmit.json
   (--reorder=off because this test runs in-process under the library
   default, which is off; the CLI default is auto). *)
let test_stats_json_golden () =
  let loaded = load_spec "../examples/specs/transmit.unity" in
  let st = Stats.collect ~file:"examples/specs/transmit.unity" loaded in
  Alcotest.(check string) "kpt stats --json matches the golden"
    (Helpers.slurp "golden/stats_transmit.json")
    (Json.to_pretty (Helpers.strip_test_counters (Stats.to_json ~timings:false st)))

let test_stats_collect_shape () =
  let loaded = load_spec "../examples/specs/transmit.unity" in
  let st = Stats.collect ~file:"transmit" loaded in
  (match st.Stats.outcome with
  | Stats.Standard { reachable; si_nodes } ->
      Alcotest.(check string) "28 reachable states" "28" (Bigcount.to_string reachable);
      Alcotest.(check bool) "SI has nodes" true (si_nodes > 0)
  | _ -> Alcotest.fail "transmit.unity is a standard program");
  Alcotest.(check string) "exact state space" "864" (Bigcount.to_string st.Stats.state_space);
  let hr = Stats.hit_rate st in
  Alcotest.(check bool) "hit rate in (0, 1)" true (hr > 0.0 && hr < 1.0);
  Alcotest.(check bool) "peak node count recorded" true
    (List.assoc "bdd.nodes.peak" st.Stats.counters > 0);
  Alcotest.(check bool) "sst iterations recorded" true
    (List.assoc "sst.iterations" st.Stats.counters > 0);
  (* the human renderer and the JSON agree on the headline number *)
  let timings t = Json.member "timings_ns" (Stats.to_json ~timings:t st) in
  Alcotest.(check bool) "timings included on request" true
    (match timings true with
    | Some (Json.Obj spans) -> List.length spans = List.length st.Stats.spans && spans <> []
    | _ -> false);
  Alcotest.(check bool) "and absent otherwise" true (timings false = None)

let suite =
  [
    Alcotest.test_case "counters are monotone cells" `Quick test_counters_monotone;
    Alcotest.test_case "counters are interned by name" `Quick test_counters_interned;
    Alcotest.test_case "snapshot is sorted; reset keeps the registry" `Quick
      test_counters_snapshot_sorted_and_reset;
    Alcotest.test_case "counter bumps allocate nothing" `Quick test_incr_allocates_nothing;
    Alcotest.test_case "bdd counters flushed when a budget trips mid-and_" `Quick
      test_counters_flushed_on_budget;
    Alcotest.test_case "bdd counters count var, nvar and cube" `Quick test_counters_var_cube;
    Alcotest.test_case "bdd counters count an explicit reorder" `Quick
      test_counters_explicit_reorder;
    Alcotest.test_case "metric contexts isolate and merge" `Quick
      test_ctx_isolation_and_merge;
    Alcotest.test_case "sink is per-context" `Quick test_ctx_sink_is_per_context;
    Alcotest.test_case "disabled sink allocates nothing" `Quick
      test_disabled_sink_allocates_nothing;
    Alcotest.test_case "installed sink receives events" `Quick test_sink_receives_events;
    Alcotest.test_case "trace sink line format" `Quick test_trace_sink_format;
    Alcotest.test_case "spans nest and accumulate" `Quick test_span_nesting;
    Alcotest.test_case "bigcount arithmetic" `Quick test_bigcount_arithmetic;
    Alcotest.test_case "sat_count_exact = brute force (<=18 vars)" `Quick
      test_satcount_exact_vs_brute;
    Alcotest.test_case "sat_count_exact beyond float precision" `Quick
      test_satcount_beyond_float_precision;
    Alcotest.test_case "kpt stats --json golden (transmit.unity)" `Quick
      test_stats_json_golden;
    Alcotest.test_case "stats collect: shape and headline numbers" `Quick
      test_stats_collect_shape;
  ]

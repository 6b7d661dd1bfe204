(* The corpus generator ([Kpt_gen]): the PRNG's position-addressed
   determinism, the generator's same-seed/same-corpus and prefix
   contracts, the unparser round-trip on generated programs, the
   manifest codec, and — the budget satellites — one seeded case per
   solve-outcome class (converged / diverged-orbit / budget-exhausted),
   with exhaustion pinned non-sticky across driver requests. *)

module Rng = Kpt_gen.Rng
module Gen = Kpt_gen.Gen
module Family = Kpt_gen.Family
module Mutate = Kpt_syntax.Mutate

let seed =
  match Option.map Rng.seed_of_string (Sys.getenv_opt "KPT_GEN_SEED") with
  | Some (Some s) -> s
  | _ -> 0x5EED_2026L

let failf fmt =
  Format.kasprintf
    (fun msg ->
      Alcotest.failf "%s@.  (%s)" msg
        (Helpers.replay_banner ~env_var:"KPT_GEN_SEED" ~seed ()))
    fmt

(* a small, fast configuration the tests share *)
let small_config =
  {
    Gen.families = [ "ring"; "relay"; "antiknow"; "soup" ];
    sizes = [ 1; 2 ];
    faults = [ Gen.Fnone; Gen.Floss; Gen.Fstutter ];
    budgets = [ Gen.Bnone; Gen.Bfuel 4 ];
    count = 24;
    seed;
  }

(* ---- the PRNG --------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.make 42L and b = Rng.make 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.next a) (Rng.next b)
  done;
  (* position addressing: stream [i] is independent of who else drew *)
  let direct = Rng.next (Rng.derive 42L 7) in
  let g = Rng.derive 42L 3 in
  ignore (Rng.next g);
  Alcotest.(check int64) "derive is position-addressed" direct
    (Rng.next (Rng.derive 42L 7));
  Alcotest.(check bool) "sibling streams differ" false
    (Int64.equal (Rng.next (Rng.derive 42L 0)) (Rng.next (Rng.derive 42L 1)))

let test_rng_ranges () =
  let g = Rng.make seed in
  for _ = 1 to 1000 do
    let v = Rng.int g 7 in
    if v < 0 || v >= 7 then failf "Rng.int out of range: %d" v
  done;
  let xs = List.init 20 Fun.id in
  let shuffled = Rng.shuffle g xs in
  Alcotest.(check (list int)) "shuffle is a permutation" xs (List.sort compare shuffled)

let test_seed_strings () =
  List.iter
    (fun s ->
      match Rng.seed_of_string (Rng.seed_to_string s) with
      | Some s' -> Alcotest.(check int64) "seed round-trip" s s'
      | None -> failf "seed %Ld did not round-trip" s)
    [ 0L; 1L; -1L; 0x5EED_2026L; Int64.max_int; Int64.min_int ];
  Alcotest.(check (option int64)) "decimal accepted" (Some 42L) (Rng.seed_of_string "42");
  Alcotest.(check (option int64)) "bare hex accepted" (Some 0xabL) (Rng.seed_of_string "ab");
  Alcotest.(check (option int64)) "junk rejected" None (Rng.seed_of_string "zz")

(* ---- generator determinism --------------------------------------------------- *)

let test_same_seed_same_corpus () =
  let a = Gen.generate small_config and b = Gen.generate small_config in
  List.iter2
    (fun (x : Gen.instance) (y : Gen.instance) ->
      if not (String.equal x.source y.source) then
        failf "instance %d differs across identical runs" x.id;
      Alcotest.(check string) "same filename" x.filename y.filename;
      if x.expected <> y.expected then failf "instance %d envelope differs" x.id)
    a b

let test_count_prefix_property () =
  let full = Gen.generate small_config in
  let half = Gen.generate { small_config with count = 12 } in
  List.iteri
    (fun i (h : Gen.instance) ->
      let f = List.nth full i in
      if not (String.equal h.source f.Gen.source) then
        failf "count=12 instance %d differs from count=24 prefix (position addressing broke)"
          i)
    half

let test_seeds_diverge () =
  let a = Gen.generate { small_config with count = 4 } in
  let b = Gen.generate { small_config with count = 4; seed = Int64.add seed 1L } in
  if List.for_all2 (fun (x : Gen.instance) (y : Gen.instance) -> x.source = y.source) a b
  then failf "different seeds produced an identical corpus"

(* ---- well-formedness and the unparser round-trip ----------------------------- *)

let test_generated_specs_parse_and_roundtrip () =
  List.iter
    (fun (i : Gen.instance) ->
      match Kpt_syntax.Parser.program_of_string i.source with
      | exception e ->
          failf "instance %d (%s) does not parse: %s" i.id i.filename
            (Printexc.to_string e)
      | ast ->
          (* unparse → reparse → unparse is a fixpoint: [pp_program]
             output is stable concrete syntax *)
          let src2 = Mutate.to_source ast in
          let src3 = Mutate.to_source (Kpt_syntax.Parser.program_of_string src2) in
          if not (String.equal src2 src3) then
            failf "instance %d (%s): unparser round-trip is not a fixpoint" i.id
              i.filename)
    (Gen.generate small_config)

let test_grid_applicability () =
  let points = Gen.grid small_config in
  if
    List.exists
      (fun (fam, _, fault, _) -> fam = "ring" && fault = Gen.Floss)
      points
  then failf "loss offered for the channel-free ring family";
  if
    not
      (List.exists
         (fun (fam, _, fault, _) -> fam = "relay" && fault = Gen.Floss)
         points)
  then failf "loss missing for the relay family (it has wires)"

(* ---- manifest codec ---------------------------------------------------------- *)

let test_manifest_roundtrip () =
  let config = { small_config with count = 6 } in
  let instances = Gen.generate config in
  let j = Json.of_string (Json.to_string (Gen.manifest_json config instances)) in
  let back = Gen.instances_of_manifest j in
  List.iter2
    (fun (a : Gen.instance) (b : Gen.instance) ->
      Alcotest.(check int) "id survives" a.id b.id;
      Alcotest.(check string) "family survives" a.family b.family;
      Alcotest.(check string) "file survives" a.filename b.filename;
      if a.fault <> b.fault then failf "fault did not survive the manifest";
      if a.budget <> b.budget then failf "budget did not survive the manifest";
      if a.expected <> b.expected then failf "envelope did not survive the manifest")
    instances back;
  let config' = Gen.config_of_manifest j in
  if config' <> config then failf "config did not survive the manifest";
  (* malformation is named, not a bare failure *)
  match Gen.instances_of_manifest (Json.Obj [ ("version", Json.Int 1) ]) with
  | exception Gen.Bad_manifest m ->
      Alcotest.(check bool) "message names the field" true
        (Helpers.contains ~affix:"instances" m)
  | _ -> failf "truncated manifest accepted"

(* ---- solve-outcome classes (the budget satellite) ----------------------------- *)

let build_source family ~n =
  let fam = Option.get (Family.find family) in
  Mutate.to_source (fam.Family.build ~n (Rng.derive seed 0)).Family.ast

let verdict ?limits source =
  let limits = Option.value limits ~default:Gen.envelope_limits in
  Kpt_analysis.Difftest.check_verdict ~limits ~file:"case.unity" source

let test_class_converged () =
  (* the relay KBP's Ĝ-iteration converges: a well-posed knowledge guard *)
  let v = verdict (build_source "relay" ~n:2) in
  Alcotest.(check string) "relay class" "kbp_converged" v.Kpt_analysis.Difftest.klass;
  Alcotest.(check int) "relay exit" 0 v.Kpt_analysis.Difftest.exit_code

let test_class_diverged_orbit () =
  (* Figure 1's ill-posed guard: the chaotic iteration enters an orbit *)
  let v = verdict (build_source "antiknow" ~n:1) in
  Alcotest.(check string) "antiknow class" "kbp_cycle" v.Kpt_analysis.Difftest.klass

let test_class_budget_exhausted_and_non_sticky () =
  let source = build_source "ring" ~n:4 in
  let tight = Gen.limits_of_budget (Gen.Bfuel 1) in
  let v = verdict ~limits:tight source in
  Alcotest.(check string) "fuel 1 exhausts" "exhausted" v.Kpt_analysis.Difftest.klass;
  Alcotest.(check int) "exhaustion exit code" 3 v.Kpt_analysis.Difftest.exit_code;
  Alcotest.(check bool) "KPT041 reported" true
    (List.mem "KPT041" v.Kpt_analysis.Difftest.codes);
  (* non-sticky: the very next scoped request (fresh engine, fresh arm)
     under a generous budget must converge as if the exhaustion never
     happened — in both orders *)
  let v2 = verdict source in
  Alcotest.(check string) "exhaustion is non-sticky" "standard"
    v2.Kpt_analysis.Difftest.klass;
  Alcotest.(check int) "clean exit after exhaustion" 0 v2.Kpt_analysis.Difftest.exit_code;
  let v3 = verdict ~limits:tight source in
  Alcotest.(check string) "re-exhausts deterministically" "exhausted"
    v3.Kpt_analysis.Difftest.klass;
  if v <> v3 then failf "exhausted verdict is not deterministic across requests"

let test_envelope_matches_recheck () =
  (* the gen-time envelope IS what a later check reports — the manifest
     differential difftest replays, sampled here on a few instances *)
  List.iteri
    (fun i (inst : Gen.instance) ->
      if i < 6 then
        let v =
          Kpt_analysis.Difftest.check_verdict
            ~limits:(Gen.limits_of_budget inst.budget)
            ~file:inst.filename inst.source
        in
        if v <> inst.expected then
          failf "instance %d (%s): manifest envelope %s but re-check says %s" inst.id
            inst.filename
            (Kpt_analysis.Difftest.verdict_to_string inst.expected)
            (Kpt_analysis.Difftest.verdict_to_string v))
    (Gen.generate { small_config with count = 12 })

(* ---- the replay banner (shared convention) ----------------------------------- *)

let test_replay_banner_format () =
  Alcotest.(check string) "bare banner"
    "replay with KPT_GEN_SEED=0x2a dune runtest"
    (Helpers.replay_banner ~env_var:"KPT_GEN_SEED" ~seed:42L ());
  Alcotest.(check string) "banner with extras"
    "replay with KPT_PROP_SEED=0x2a KPT_PROP_CASES=500 dune runtest"
    (Helpers.replay_banner ~env_var:"KPT_PROP_SEED" ~seed:42L
       ~extra:[ ("KPT_PROP_CASES", "500") ]
       ())

let suite =
  [
    Alcotest.test_case "rng: same seed, same stream; derive is positional" `Quick
      test_rng_determinism;
    Alcotest.test_case "rng: ranges and shuffle" `Quick test_rng_ranges;
    Alcotest.test_case "rng: seed string round-trip" `Quick test_seed_strings;
    Alcotest.test_case "gen: same seed = identical corpus" `Quick
      test_same_seed_same_corpus;
    Alcotest.test_case "gen: --count is a prefix, not a reshuffle" `Quick
      test_count_prefix_property;
    Alcotest.test_case "gen: seeds diverge" `Quick test_seeds_diverge;
    Alcotest.test_case "gen: every spec parses; unparser is a fixpoint" `Quick
      test_generated_specs_parse_and_roundtrip;
    Alcotest.test_case "gen: loss is skipped for channel-free families" `Quick
      test_grid_applicability;
    Alcotest.test_case "gen: manifest round-trip and named malformation" `Quick
      test_manifest_roundtrip;
    Alcotest.test_case "budget: relay converges (Converged class)" `Quick
      test_class_converged;
    Alcotest.test_case "budget: antiknow cycles (Diverged-orbit class)" `Quick
      test_class_diverged_orbit;
    Alcotest.test_case "budget: exhaustion class, exit 3, and non-stickiness" `Quick
      test_class_budget_exhausted_and_non_sticky;
    Alcotest.test_case "gen: manifest envelope = re-check verdict" `Quick
      test_envelope_matches_recheck;
    Alcotest.test_case "replay banner format" `Quick test_replay_banner_format;
  ]

(* The differential / metamorphic harness behind [kpt difftest].

   One spec, many pipelines, one truth: every way the toolchain can
   process a [.unity] source must agree.  Two comparison semantics:

   - {e Bytes}: two [Driver] paths over the same source must produce
     identical [(out, err, code)] triples.  Valid wherever the rendered
     output is a function of the input alone — [-j1] vs [-jN] (the
     renderer is input-ordered), [--reorder off] vs [auto] in text mode
     (the text summary contains no node counts), and the serve / cache
     paths the CLI injects (the daemon is the same [Driver] behind a
     socket).

   - {e Verdict}: the structured verdict {failed; sorted codes; outcome
     class} must survive transformations that may legitimately change
     bytes — slicing (fewer variables, different counts, same verdict)
     and the metamorphic transforms (variable renaming, statement
     permutation).

   A disagreement is minimised by greedy statement removal
   ([Mutate.drop_stmt]) and reported with enough structure for the CLI
   to print a replayable [KPT_GEN_SEED] case. *)

open Kpt_syntax

(* ---- verdicts ---------------------------------------------------------------- *)

type verdict = {
  failed : bool;
  codes : string list;  (* sorted, deduplicated *)
  klass : string;  (* standard | kbp_converged | kbp_cycle | exhausted | error *)
  exit_code : int;  (* Check.run_sources semantics: 0 | 1 | 3 *)
}

(* the generous, wall-clock-free budget verdict-level comparisons run
   under (and [kpt gen] computes expected envelopes under): exhaustion
   under it is deterministic and machine-independent *)
let envelope_limits = Kpt_predicate.Budget.limits ~fuel:200_000 ~max_nodes:4_000_000 ()

let verdict_of_report (r : Check.report) =
  let codes = List.sort_uniq compare (List.map (fun d -> d.Diagnostic.code) r.diags) in
  let failed = Check.failed r in
  let klass =
    match r.stats with
    | Some s -> (
        match s.Stats.outcome with
        | Stats.Standard _ -> "standard"
        | Stats.Kbp_converged _ -> "kbp_converged"
        | Stats.Kbp_cycle _ -> "kbp_cycle")
    | None -> if List.mem "KPT041" codes then "exhausted" else "error"
  in
  let exit_code = if List.mem "KPT041" codes then 3 else if failed then 1 else 0 in
  { failed; codes; klass; exit_code }

let check_verdict ?slice ~limits ~file source =
  match Check.reports ~jobs:1 ~budget:limits ?slice [ (file, source) ] with
  | [ r ] -> verdict_of_report r
  | _ -> assert false

let verdict_to_string v =
  Printf.sprintf "{%s; %s; codes=[%s]; exit=%d}"
    (if v.failed then "fail" else "ok")
    v.klass
    (String.concat "," v.codes)
    v.exit_code

(* ---- paths ------------------------------------------------------------------- *)

(* a path: one way of pushing a source through the toolchain, producing
   the [Driver] outcome the CLI would print *)
type runner = limits:Kpt_predicate.Budget.limits -> file:string -> source:string -> Driver.outcome

type path = { path_name : string; run : runner }

let check_opts ~limits ~jobs ~reorder =
  {
    Driver.default_options with
    jobs = Some jobs;
    limits;
    reorder;
  }

let driver_path name ~jobs ~reorder =
  {
    path_name = name;
    run =
      (fun ~limits ~file ~source ->
        Driver.check (check_opts ~limits ~jobs ~reorder) [ (file, source) ]);
  }

let base_path = driver_path "check-j1" ~jobs:1 ~reorder:Kpt_predicate.Engine.Reorder_off

let builtin_paths =
  [
    driver_path "check-j3" ~jobs:3 ~reorder:Kpt_predicate.Engine.Reorder_off;
    driver_path "reorder-auto" ~jobs:1 ~reorder:Kpt_predicate.Engine.Reorder_auto;
  ]

(* ---- disagreements ----------------------------------------------------------- *)

type disagreement = {
  d_file : string;
  d_check : string;  (* e.g. "path:check-j1-vs-check-j3", "metamorphic:rename" *)
  d_detail : string;
  d_shrunk : string option;  (* minimised source, when shrinking applied *)
}

type spec_result = {
  r_file : string;
  r_verdict : verdict;  (* base-path verdict under the instance budget *)
  r_comparisons : int;
  r_disagreements : disagreement list;
}

let outcome_diff (a : Driver.outcome) (b : Driver.outcome) =
  if a.code <> b.code then Some (Printf.sprintf "exit codes differ: %d vs %d" a.code b.code)
  else if not (String.equal a.out b.out) then
    Some
      (Printf.sprintf "stdout differs (%d vs %d bytes)" (String.length a.out)
         (String.length b.out))
  else if not (String.equal a.err b.err) then
    Some
      (Printf.sprintf "stderr differs (%d vs %d bytes)" (String.length a.err)
         (String.length b.err))
  else None

let verdict_diff a b =
  if a = b then None
  else Some (Printf.sprintf "%s vs %s" (verdict_to_string a) (verdict_to_string b))

(* ---- shrinking --------------------------------------------------------------- *)

(* Greedy statement removal: as long as the disagreement predicate holds,
   try dropping each statement in turn and restart from the smaller
   program.  [still_bad] re-runs the specific failing comparison on the
   candidate source. *)
let shrink ~still_bad source =
  match Parser.program_of_string source with
  | exception _ -> None
  | ast ->
      let rec go ast =
        let n = List.length ast.Ast.p_stmts in
        if n <= 1 then ast
        else
          let rec try_drop i =
            if i >= n then ast
            else
              let cand = Mutate.drop_stmt i ast in
              if still_bad (Mutate.to_source cand) then go cand else try_drop (i + 1)
          in
          try_drop 0
      in
      let shrunk = go ast in
      Some (Mutate.to_source shrunk)

(* ---- one spec ---------------------------------------------------------------- *)

(* deterministic permutation of [0..n-1] keyed by a seed — a tiny local
   shuffle so the permutation transform is replayable from the corpus
   seed alone (rotate-and-swap driven by SplitMix-style mixing would be
   overkill; a keyed Fisher-Yates over a linear congruence suffices and
   keeps this module free of the generator library) *)
let keyed_permutation seed n =
  let state = ref Int64.(add seed 0x9E3779B97F4A7C15L) in
  let next_int bound =
    state := Int64.(add (mul !state 6364136223846793005L) 1442695040888963407L);
    Int64.to_int (Int64.rem (Int64.logand !state Int64.max_int) (Int64.of_int bound))
  in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = next_int (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let run_spec ?(extra_paths = []) ?expected ?(seed = 0L) ~limits ~file ~source () =
  let comparisons = ref 0 in
  let disagreements = ref [] in
  let record check detail shrunk =
    disagreements :=
      { d_file = file; d_check = check; d_detail = detail; d_shrunk = shrunk }
      :: !disagreements
  in
  (* 1. byte-level path pairs under the instance budget *)
  let base = base_path.run ~limits ~file ~source in
  List.iter
    (fun p ->
      incr comparisons;
      let other = p.run ~limits ~file ~source in
      match outcome_diff base other with
      | None -> ()
      | Some detail ->
          let still_bad src =
            outcome_diff (base_path.run ~limits ~file ~source:src)
              (p.run ~limits ~file ~source:src)
            <> None
          in
          record
            (Printf.sprintf "path:%s-vs-%s" base_path.path_name p.path_name)
            detail (shrink ~still_bad source))
    (builtin_paths @ extra_paths);
  (* 2. the base verdict, and the gen-time envelope differential *)
  let base_verdict = check_verdict ~limits ~file source in
  (match expected with
  | None -> ()
  | Some e ->
      incr comparisons;
      match verdict_diff e base_verdict with
      | None -> ()
      | Some detail -> record "envelope" ("manifest vs run: " ^ detail) None);
  (* 3. verdict-level comparisons under the envelope budget (slicing and
     the metamorphic transforms may legitimately change byte output and
     resource consumption, never the verdict) *)
  let reference = check_verdict ~limits:envelope_limits ~file source in
  incr comparisons;
  (let sliced = check_verdict ~slice:true ~limits:envelope_limits ~file source in
   match verdict_diff reference sliced with
   | None -> ()
   | Some detail ->
       let still_bad src =
         verdict_diff
           (check_verdict ~limits:envelope_limits ~file src)
           (check_verdict ~slice:true ~limits:envelope_limits ~file src)
         <> None
       in
       record "path:slice" detail (shrink ~still_bad source));
  (match reference.codes with
  | codes when List.mem "KPT001" codes || List.mem "KPT002" codes ->
      ()  (* unparseable input: no AST to transform *)
  | _ ->
      let metamorphic name transform =
        incr comparisons;
        let run_transformed src =
          match Parser.program_of_string src with
          | exception _ -> None
          | ast -> (
              match transform ast with
              | None -> None
              | Some ast' ->
                  Some (check_verdict ~limits:envelope_limits ~file (Mutate.to_source ast')))
        in
        match run_transformed source with
        | None -> ()
        | Some v -> (
            match verdict_diff reference v with
            | None -> ()
            | Some detail ->
                let still_bad src =
                  match run_transformed src with
                  | None -> false
                  | Some v' ->
                      verdict_diff (check_verdict ~limits:envelope_limits ~file src) v' <> None
                in
                record ("metamorphic:" ^ name) detail (shrink ~still_bad source))
      in
      metamorphic "rename" (fun ast ->
          Some (Mutate.rename_vars (Mutate.fresh_renaming ast) ast));
      metamorphic "permute" (fun ast ->
          let n = List.length ast.Ast.p_stmts in
          if n <= 1 then None
          else Some (Mutate.permute_stmts (keyed_permutation seed n) ast)));
  {
    r_file = file;
    r_verdict = base_verdict;
    r_comparisons = !comparisons;
    r_disagreements = List.rev !disagreements;
  }

let path_names ~extra_paths =
  base_path.path_name
  :: (List.map (fun p -> p.path_name) (builtin_paths @ extra_paths)
     @ [ "slice"; "metamorphic:rename"; "metamorphic:permute" ])

(* ---- corpus aggregation ------------------------------------------------------ *)

(* one observation row, assembled by the CLI (which knows the manifest
   metadata this library must not depend on) *)
type obs = {
  o_family : string;
  o_size : int;
  o_fault : string;
  o_budget : string;  (* "none" or "fuel:N" *)
  o_ns : int64;  (* wall time of the spec's comparisons *)
  o_result : spec_result;
}

let count_by key rows =
  List.fold_left
    (fun acc r ->
      let k = key r in
      let n = try List.assoc k acc with Not_found -> 0 in
      (k, n + 1) :: List.remove_assoc k acc)
    [] rows
  |> List.sort compare

(* least-squares slope of log(ns) against log(size) — the time-vs-size
   fit per family.  [None] with fewer than two distinct sizes. *)
let loglog_slope points =
  let pts =
    List.filter_map
      (fun (size, ns) ->
        if size > 0 && Int64.compare ns 0L > 0 then
          Some (log (float_of_int size), log (Int64.to_float ns))
        else None)
      points
  in
  let n = List.length pts in
  let distinct_x = List.sort_uniq compare (List.map fst pts) in
  if n < 2 || List.length distinct_x < 2 then None
  else
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
    let fn = float_of_int n in
    let denom = (fn *. sxx) -. (sx *. sx) in
    if abs_float denom < 1e-12 then None else Some (((fn *. sxy) -. (sx *. sy)) /. denom)

let disagreement_json d =
  Json.Obj
    [
      ("file", Json.String d.d_file);
      ("check", Json.String d.d_check);
      ("detail", Json.String d.d_detail);
      ( "shrunk",
        match d.d_shrunk with None -> Json.Null | Some s -> Json.String s );
    ]

(* The CORPUS_RESULTS.json document.  Everything except [timings] is a
   deterministic function of (corpus, toolchain); [timings] carries the
   wall-clock material the fits are computed from and is not pinned by
   any gate. *)
let report_json ~seed ~paths rows =
  let results = List.map (fun o -> o.o_result) rows in
  let comparisons = List.fold_left (fun a r -> a + r.r_comparisons) 0 results in
  let disagreements = List.concat_map (fun r -> r.r_disagreements) results in
  let total_ns = List.fold_left (fun a o -> Int64.add a o.o_ns) 0L rows in
  let by_class = count_by (fun o -> o.o_result.r_verdict.klass) rows in
  let lint_of o =
    let v = o.o_result.r_verdict in
    if v.failed then "errored" else if v.codes <> [] then "warned" else "clean"
  in
  let families = List.sort_uniq compare (List.map (fun o -> o.o_family) rows) in
  let fits =
    List.filter_map
      (fun fam ->
        let points =
          List.filter_map
            (fun o -> if o.o_family = fam then Some (o.o_size, o.o_ns) else None)
            rows
        in
        match loglog_slope points with
        | None -> None
        | Some slope ->
            Some
              (Json.Obj
                 [
                   ("family", Json.String fam);
                   ("points", Json.Int (List.length points));
                   ("loglog_slope", Json.Float slope);
                 ]))
      families
  in
  let budgeted = List.filter (fun o -> o.o_budget <> "none") rows in
  let exhausted =
    List.length (List.filter (fun o -> o.o_result.r_verdict.klass = "exhausted") budgeted)
  in
  let specs = List.length rows in
  Json.Obj
    [
      ( "corpus",
        Json.Obj
          [
            ("specs", Json.Int specs);
            ("seed", Json.String seed);
            ("families", Json.List (List.map (fun f -> Json.String f) families));
          ] );
      ( "difftest",
        Json.Obj
          [
            ("paths", Json.List (List.map (fun p -> Json.String p) paths));
            ("comparisons", Json.Int comparisons);
            ("disagreements", Json.Int (List.length disagreements));
            ( "pass_rate",
              Json.Float
                (if comparisons = 0 then 1.0
                 else
                   float_of_int (comparisons - List.length disagreements)
                   /. float_of_int comparisons) );
            ("failures", Json.List (List.map disagreement_json disagreements));
          ] );
      ("outcomes", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) by_class));
      ( "lint",
        Json.Obj
          (List.map (fun (k, n) -> (k, Json.Int n)) (count_by lint_of rows)) );
      ( "budget",
        Json.Obj
          [
            ("budgeted_runs", Json.Int (List.length budgeted));
            ("exhausted", Json.Int exhausted);
            ( "exhaustion_rate",
              Json.Float
                (if budgeted = [] then 0.0
                 else float_of_int exhausted /. float_of_int (List.length budgeted)) );
          ] );
      ("fits", Json.List fits);
      ("timings", Json.Obj [ ("total_ns", Json.Int (Int64.to_int total_ns)) ]);
    ]

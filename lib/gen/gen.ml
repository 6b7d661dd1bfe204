(* The corpus generator behind [kpt gen]: a seeded, deterministic walk
   over the (family × size × fault × budget) grid, emitting well-formed
   [.unity] sources plus a manifest recording each instance's expected
   envelope.

   Determinism contract: instance [i] of a given configuration is a
   function of [(config.seed, i, grid)] alone — its randomness comes
   from the position-addressed stream [Rng.derive seed i], never from a
   shared cursor — so the same flags and seed produce a byte-identical
   corpus on any machine, in any generation order, at any [--count]. *)

open Kpt_syntax

type fault = Fnone | Floss | Fstutter
type budget = Bnone | Bfuel of int

let fault_to_string = function Fnone -> "none" | Floss -> "loss" | Fstutter -> "stutter"

let fault_of_string = function
  | "none" -> Some Fnone
  | "loss" -> Some Floss
  | "stutter" -> Some Fstutter
  | _ -> None

let budget_to_string = function Bnone -> "none" | Bfuel f -> Printf.sprintf "fuel:%d" f

let budget_of_string s =
  if s = "none" then Some Bnone
  else
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "fuel" -> (
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some f when f > 0 -> Some (Bfuel f)
        | _ -> None)
    | _ -> None

(* the envelope budget: generous, and — like [Budget.analysis_default] —
   wall-clock-free, so an instance's expected class is machine-independent.
   Shared with the difftest harness: what gen records, difftest re-derives. *)
let envelope_limits = Kpt_analysis.Difftest.envelope_limits

let limits_of_budget = function
  | Bnone -> envelope_limits
  | Bfuel f -> Kpt_predicate.Budget.limits ~fuel:f ~max_nodes:4_000_000 ()

(* the expected envelope IS a difftest verdict — the manifest stores the
   gen-time side of the gen-vs-run differential *)
type expected = Kpt_analysis.Difftest.verdict = {
  failed : bool;
  codes : string list;
  klass : string;
  exit_code : int;
}

type instance = {
  id : int;
  family : string;
  size : int;
  fault : fault;
  budget : budget;
  filename : string;
  source : string;
  expected : expected;
}

type config = {
  families : string list;
  sizes : int list;
  faults : fault list;
  budgets : budget list;
  count : int;
  seed : int64;
}

let default_config =
  {
    families = Family.names;
    sizes = [ 1; 2; 3; 4 ];
    faults = [ Fnone; Floss; Fstutter ];
    budgets = [ Bnone; Bfuel 8 ];
    count = 1000;
    seed = 1L;
  }

exception Bad_config of string

let validate config =
  if config.count <= 0 then raise (Bad_config "count must be positive");
  if config.families = [] then raise (Bad_config "no families selected");
  if config.sizes = [] then raise (Bad_config "no sizes selected");
  if config.faults = [] then raise (Bad_config "no faults selected");
  if config.budgets = [] then raise (Bad_config "no budgets selected");
  List.iter
    (fun f ->
      if Family.find f = None then
        raise (Bad_config (Printf.sprintf "unknown family %S (known: %s)" f
                             (String.concat ", " Family.names))))
    config.families;
  List.iter
    (fun s -> if s <= 0 then raise (Bad_config "sizes must be positive"))
    config.sizes

(* whether the loss fault applies: the family must have a channel.
   Applicability is a property of the family alone (loss statements are
   derived from the structure, not the jitter), so probing with a
   throwaway stream is sound. *)
let loss_applicable fam =
  (fam.Family.build ~n:fam.Family.min_size (Rng.of_int 0)).Family.loss <> []

(* the combination grid, applicability-filtered, in deterministic
   (family-major) order *)
let grid config =
  List.concat_map
    (fun fname ->
      let fam = Option.get (Family.find fname) in
      List.concat_map
        (fun size ->
          List.concat_map
            (fun fault ->
              if fault = Floss && not (loss_applicable fam) then []
              else List.map (fun b -> (fname, size, fault, b)) config.budgets)
            config.faults)
        config.sizes)
    config.families

let apply_fault g fault (built : Family.built) =
  let ast = built.Family.ast in
  match fault with
  | Fnone -> ast
  | Floss -> { ast with Ast.p_stmts = ast.Ast.p_stmts @ built.Family.loss }
  | Fstutter ->
      (* a self-assignment on a random scalar variable (arrays have no
         whole-array assignment form): a no-op the hygiene lint is
         expected to flag, never a verdict change *)
      let scalars =
        List.concat_map
          (fun (names, ty) ->
            match ty with Ast.Tarray _ -> [] | _ -> List.map fst names)
          ast.Ast.p_vars
      in
      let x = Rng.pick g scalars in
      let idle =
        {
          Ast.s_name = Some "idle";
          s_targets = [ Ast.Tvar x ];
          s_exprs = [ Ast.mk (Ast.Eident x) ];
          s_guard = None;
          s_span = Loc.dummy;
        }
      in
      { ast with Ast.p_stmts = ast.Ast.p_stmts @ [ idle ] }

(* the expected envelope: what one [kpt check] of this source, under the
   instance's budget, must report — computed exactly the way the
   difftest base leg recomputes it (fresh engine per task) *)
let envelope ~filename ~budget source =
  Kpt_analysis.Difftest.check_verdict ~limits:(limits_of_budget budget) ~file:filename
    source

(* instance [i]: pick the grid point round-robin, then derive its
   private stream — the only source of randomness in its construction *)
let build_instance config grid_points i =
  let fname, size, fault, budget = List.nth grid_points (i mod List.length grid_points) in
  let fam = Option.get (Family.find fname) in
  let g = Rng.derive config.seed i in
  let built = fam.Family.build ~n:(max fam.Family.min_size size) g in
  let ast = apply_fault g fault built in
  (* verdict-neutral jitter: UNITY statements are an unordered set *)
  let n = List.length ast.Ast.p_stmts in
  let ast = Mutate.permute_stmts (Rng.shuffle g (List.init n Fun.id)) ast in
  let source = Mutate.to_source ast in
  let filename =
    Printf.sprintf "%s-n%02d-%s-%s-%04d.unity" fname size (fault_to_string fault)
      (String.map (fun c -> if c = ':' then '-' else c) (budget_to_string budget))
      i
  in
  let expected = envelope ~filename ~budget source in
  { id = i; family = fname; size; fault; budget; filename; source; expected }

let generate config =
  validate config;
  let points = grid config in
  List.init config.count (build_instance config points)

(* ---- manifest --------------------------------------------------------------- *)

let manifest_version = 1

let expected_to_json e =
  Json.Obj
    [
      ("codes", Json.List (List.map (fun c -> Json.String c) e.codes));
      ("failed", Json.Bool e.failed);
      ("class", Json.String e.klass);
      ("exit", Json.Int e.exit_code);
    ]

let instance_to_json inst =
  Json.Obj
    [
      ("id", Json.Int inst.id);
      ("family", Json.String inst.family);
      ("size", Json.Int inst.size);
      ("fault", Json.String (fault_to_string inst.fault));
      ("budget", Json.String (budget_to_string inst.budget));
      ("file", Json.String inst.filename);
      ("expected", expected_to_json inst.expected);
    ]

let manifest_json config instances =
  Json.Obj
    [
      ("version", Json.Int manifest_version);
      ("seed", Json.String (Rng.seed_to_string config.seed));
      ("count", Json.Int config.count);
      ("families", Json.List (List.map (fun f -> Json.String f) config.families));
      ("sizes", Json.List (List.map (fun s -> Json.Int s) config.sizes));
      ("faults", Json.List (List.map (fun f -> Json.String (fault_to_string f)) config.faults));
      ( "budgets",
        Json.List (List.map (fun b -> Json.String (budget_to_string b)) config.budgets) );
      ("instances", Json.List (List.map instance_to_json instances));
    ]

exception Bad_manifest of string

let mfail fmt = Printf.ksprintf (fun s -> raise (Bad_manifest s)) fmt

let req ~what to_v key j =
  match Option.bind (Json.member key j) to_v with
  | Some v -> v
  | None -> mfail "manifest: missing or ill-typed %S (%s)" key what

let expected_of_json j =
  {
    codes =
      req ~what:"expected" Json.to_list "codes" j
      |> List.map (fun c ->
             match Json.to_str c with
             | Some s -> s
             | None -> mfail "manifest: non-string code in expected.codes");
    failed = req ~what:"expected" Json.to_bool "failed" j;
    klass = req ~what:"expected" Json.to_str "class" j;
    exit_code = req ~what:"expected" Json.to_int "exit" j;
  }

(* parse an instance entry back (the [source] field is not stored in
   the manifest — difftest reads the [.unity] file from the corpus
   directory) *)
let instance_of_json j =
  let str_field ~what k = req ~what Json.to_str k j in
  {
    id = req ~what:"instance" Json.to_int "id" j;
    family = str_field ~what:"instance" "family";
    size = req ~what:"instance" Json.to_int "size" j;
    fault =
      (match fault_of_string (str_field ~what:"instance" "fault") with
      | Some f -> f
      | None -> mfail "manifest: bad fault");
    budget =
      (match budget_of_string (str_field ~what:"instance" "budget") with
      | Some b -> b
      | None -> mfail "manifest: bad budget");
    filename = str_field ~what:"instance" "file";
    source = "";
    expected =
      (match Json.member "expected" j with
      | Some e -> expected_of_json e
      | None -> mfail "manifest: missing expected");
  }

let instances_of_manifest j =
  (match Option.bind (Json.member "version" j) Json.to_int with
  | Some v when v = manifest_version -> ()
  | Some v -> mfail "manifest: version %d (this build reads %d)" v manifest_version
  | None -> mfail "manifest: missing version");
  req ~what:"manifest" Json.to_list "instances" j |> List.map instance_of_json

(* parse the generation flags back — what a replay banner needs *)
let config_of_manifest j =
  let str_list ~what k =
    req ~what Json.to_list k j
    |> List.map (fun v ->
           match Json.to_str v with
           | Some s -> s
           | None -> mfail "manifest: non-string in %S" k)
  in
  {
    families = str_list ~what:"manifest" "families";
    sizes =
      req ~what:"manifest" Json.to_list "sizes" j
      |> List.map (fun v ->
             match Json.to_int v with
             | Some s -> s
             | None -> mfail "manifest: non-int size");
    faults =
      str_list ~what:"manifest" "faults"
      |> List.map (fun s ->
             match fault_of_string s with
             | Some f -> f
             | None -> mfail "manifest: bad fault %S" s);
    budgets =
      str_list ~what:"manifest" "budgets"
      |> List.map (fun s ->
             match budget_of_string s with
             | Some b -> b
             | None -> mfail "manifest: bad budget %S" s);
    count = req ~what:"manifest" Json.to_int "count" j;
    seed =
      (match Rng.seed_of_string (req ~what:"manifest" Json.to_str "seed" j) with
      | Some s -> s
      | None -> mfail "manifest: bad seed");
  }

(* ---- corpus directory ------------------------------------------------------- *)

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let write_corpus ~dir config =
  let instances = generate config in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter (fun i -> write_file (Filename.concat dir i.filename) i.source) instances;
  write_file
    (Filename.concat dir "manifest.json")
    (Json.to_string (manifest_json config instances) ^ "\n");
  instances

let read_manifest dir =
  let path = Filename.concat dir "manifest.json" in
  if not (Sys.file_exists path) then mfail "no manifest.json in %s (run kpt gen first)" dir;
  let content = In_channel.with_open_bin path In_channel.input_all in
  let j = try Json.of_string content with Json.Parse_error m -> mfail "manifest: %s" m in
  (config_of_manifest j, instances_of_manifest j)

open Kpt_predicate
open Kpt_core

type outcome =
  | Standard of { reachable : Bigcount.t; si_nodes : int }
  | Kbp_converged of { steps : int; states : Bigcount.t }
  | Kbp_cycle of { period : int }

type t = {
  file : string;
  variables : int;
  statements : int;
  state_space : Bigcount.t;
  outcome : outcome;
  bdd : Bdd.stats;
  counters : (string * int) list;
  spans : (string * int64 * int) list;
}

let collect ~file (sp, kbp) =
  Kpt_obs.reset ();
  let m = Space.manager sp in
  let outcome =
    if Kbp.is_standard kbp then begin
      let prog = Kpt_obs.time "to_standard" (fun () -> Kbp.to_standard_program kbp) in
      let si = Kpt_obs.time "si" (fun () -> Kpt_unity.Program.si prog) in
      Standard { reachable = Space.count_states_exact sp si; si_nodes = Bdd.size m si }
    end
    else
      match Kpt_obs.time "iterate" (fun () -> Kbp.solve kbp) with
      | Kbp.Converged { si; steps } ->
          Kbp_converged { steps; states = Space.count_states_exact sp si }
      | Kbp.Diverged { orbit; _ } -> Kbp_cycle { period = List.length orbit }
      | Kbp.Budget_exhausted { reason; _ } -> raise (Budget.Exhausted reason)
  in
  (* snapshot strictly after the workload (field evaluation order is
     unspecified, so bind explicitly) *)
  let bdd = Bdd.stats m in
  let counters = Kpt_obs.counters () in
  let spans = Kpt_obs.spans () in
  {
    file;
    variables = List.length (Space.vars sp);
    statements = List.length (Kbp.kstmts kbp);
    state_space = Space.state_count_exact sp;
    outcome;
    bdd;
    counters;
    spans;
  }

let counter_value t name = match List.assoc_opt name t.counters with Some v -> v | None -> 0

let hit_rate t =
  let hits = counter_value t "bdd.op_cache.hits" in
  let misses = counter_value t "bdd.op_cache.misses" in
  if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)

let kind t = match t.outcome with Standard _ -> "standard" | _ -> "kbp"

let pp fmt t =
  Format.fprintf fmt "@[<v>%s@," t.file;
  Format.fprintf fmt "  program        : %s, %d variable(s), %d statement(s)@." (kind t)
    t.variables t.statements;
  Format.fprintf fmt "  state space    : %a states@." Bigcount.pp t.state_space;
  (match t.outcome with
  | Standard { reachable; si_nodes } ->
      Format.fprintf fmt "  reachable      : %a states (SI: %d BDD nodes, %d sst iterations)@."
        Bigcount.pp reachable si_nodes
        (counter_value t "sst.iterations")
  | Kbp_converged { steps; states } ->
      Format.fprintf fmt "  Ĝ-iteration    : converged in %d step(s) to %a state(s)@." steps
        Bigcount.pp states
  | Kbp_cycle { period } ->
      Format.fprintf fmt "  Ĝ-iteration    : cycles with period %d (no fixpoint reached)@." period);
  Format.fprintf fmt "  op-cache       : %.1f%% hit rate (%d hits / %d misses), %d slots@."
    (100.0 *. hit_rate t)
    (counter_value t "bdd.op_cache.hits")
    (counter_value t "bdd.op_cache.misses")
    t.bdd.Bdd.cache_slots;
  Format.fprintf fmt
    "  unique table   : %d nodes created (peak), %d live, %d slots at %.0f%% load, %d spilled@."
    t.bdd.Bdd.nodes_created t.bdd.Bdd.live_nodes t.bdd.Bdd.unique_slots
    (100.0 *. t.bdd.Bdd.unique_load)
    t.bdd.Bdd.spill_nodes;
  Format.fprintf fmt "  counters:@.";
  List.iter
    (fun (name, v) -> if v <> 0 then Format.fprintf fmt "    %-32s %d@." name v)
    t.counters;
  Format.fprintf fmt "  timings:@.";
  List.iter
    (fun (name, ns, calls) ->
      Format.fprintf fmt "    %-32s %8.3f ms  (%d call%s)@." name
        (Int64.to_float ns /. 1e6)
        calls
        (if calls = 1 then "" else "s"))
    t.spans;
  Format.fprintf fmt "@]"

let json_string s = Json.to_string (Json.String s)

let to_json ?(timings = true) t =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\n";
  pf "  \"file\": %s,\n" (json_string t.file);
  pf "  \"kind\": \"%s\",\n" (kind t);
  pf "  \"variables\": %d,\n" t.variables;
  pf "  \"statements\": %d,\n" t.statements;
  pf "  \"state_space\": %s,\n" (Bigcount.to_string t.state_space);
  (match t.outcome with
  | Standard { reachable; si_nodes } ->
      pf "  \"reachable\": %s,\n" (Bigcount.to_string reachable);
      pf "  \"si_nodes\": %d,\n" si_nodes;
      pf "  \"sst_iterations\": %d,\n" (counter_value t "sst.iterations")
  | Kbp_converged { steps; states } ->
      pf "  \"kbp_fixpoint_steps\": %d,\n" steps;
      pf "  \"solution_states\": %s,\n" (Bigcount.to_string states)
  | Kbp_cycle { period } -> pf "  \"kbp_cycle_period\": %d,\n" period);
  pf "  \"op_cache_hit_rate\": %.4f,\n" (hit_rate t);
  pf "  \"peak_nodes\": %d,\n" t.bdd.Bdd.nodes_created;
  pf "  \"bdd\": { \"nodes_created\": %d, \"live_nodes\": %d, \"unique_slots\": %d, \
      \"unique_load\": %.4f, \"spill_nodes\": %d, \"cache_slots\": %d },\n"
    t.bdd.Bdd.nodes_created t.bdd.Bdd.live_nodes t.bdd.Bdd.unique_slots t.bdd.Bdd.unique_load
    t.bdd.Bdd.spill_nodes t.bdd.Bdd.cache_slots;
  pf "  \"counters\": {\n";
  List.iteri
    (fun i (name, v) ->
      pf "    %s: %d%s\n" (json_string name) v
        (if i = List.length t.counters - 1 then "" else ","))
    t.counters;
  if timings then begin
    pf "  },\n  \"timings_ns\": {\n";
    List.iteri
      (fun i (name, ns, _) ->
        pf "    %s: %Ld%s\n" (json_string name) ns
          (if i = List.length t.spans - 1 then "" else ","))
      t.spans;
    pf "  }\n"
  end
  else pf "  }\n";
  pf "}\n";
  Buffer.contents b

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
    "  unique table   : %d nodes created (peak), %d live, %d slots at %.0f%% load@."
    t.bdd.Bdd.nodes_created t.bdd.Bdd.live_nodes t.bdd.Bdd.unique_slots
    (100.0 *. t.bdd.Bdd.unique_load);
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

(* an exact count: a JSON integer at any size *)
let count_json c =
  match Bigcount.to_int c with Some i -> Json.Int i | None -> Json.Bigint (Bigcount.to_string c)

let round4 x = Json.Float (Float.round (x *. 1e4) /. 1e4)

let to_json ?(timings = true) t =
  let open Json in
  let outcome =
    match t.outcome with
    | Standard { reachable; si_nodes } ->
        [ ("reachable", count_json reachable); ("si_nodes", Int si_nodes);
          ("sst_iterations", Int (counter_value t "sst.iterations")) ]
    | Kbp_converged { steps; states } ->
        [ ("kbp_fixpoint_steps", Int steps); ("solution_states", count_json states) ]
    | Kbp_cycle { period } -> [ ("kbp_cycle_period", Int period) ]
  in
  let b = t.bdd in
  let bdd =
    Obj [ ("nodes_created", Int b.Bdd.nodes_created); ("live_nodes", Int b.Bdd.live_nodes);
          ("unique_slots", Int b.Bdd.unique_slots); ("unique_load", round4 b.Bdd.unique_load);
          ("cache_slots", Int b.Bdd.cache_slots) ]
  in
  let spans = List.map (fun (name, ns, _) -> (name, Int (Int64.to_int ns))) t.spans in
  Obj
    ([ ("file", String t.file); ("kind", String (kind t)); ("variables", Int t.variables);
       ("statements", Int t.statements); ("state_space", count_json t.state_space) ]
    @ outcome
    @ [ ("op_cache_hit_rate", round4 (hit_rate t)); ("peak_nodes", Int b.Bdd.nodes_created);
        ("bdd", bdd); ("counters", Obj (List.map (fun (name, v) -> (name, Int v)) t.counters)) ]
    @ if timings then [ ("timings_ns", Obj spans) ] else [])

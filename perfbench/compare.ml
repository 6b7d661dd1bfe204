(* BENCHMARK.json, and the comparison of two sets of runs against the
   bounds it fixes.

   Rule, per (workload, end-to-end metric), with A the parent's runs and
   B the change's, paired in the order given (run them alternated):
   - improved: B wins at least 9 of every 10 pairs and the medians differ
     by more than A's own spread (the distance between its quartiles);
   - unresolved: otherwise, when either side's spread exceeds the bound;
   - regressed: otherwise, when B's median is worse than A's by more than
     the bound;
   - unchanged: otherwise. *)

type metric = { name : string; unit_ : string; lower_better : bool; bound : float }

let num = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

let load_benchmark path =
  let j = Json.of_string (Proc.read_file path) in
  let bad what = failwith (Printf.sprintf "%s: %s" path what) in
  let section key =
    match Option.bind (Json.member key j) Json.to_list with
    | Some l ->
        List.map
          (fun e ->
            let str k = Option.bind (Json.member k e) Json.to_str in
            match (str "name", str "unit", str "better") with
            | Some name, Some unit_, Some better ->
                {
                  name;
                  unit_;
                  lower_better = better = "lower";
                  bound = Option.value ~default:0. (Option.bind (Json.member "bound" e) num);
                }
            | _ -> bad ("malformed entry in " ^ key))
          l
    | None -> bad ("no " ^ key)
  in
  (section "end_to_end", section "per_layer")

(* (workload, metric name -> value) of one untraced result file *)
let load_result path =
  let j = Json.of_string (Proc.read_file path) in
  let workload = Option.bind (Json.member "workload" j) Json.to_str in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) num))
          kvs
    | _ -> []
  in
  match workload with
  | Some w -> (w, metrics)
  | None -> failwith (path ^ ": not a result file of this benchmark")

(* a single run has no spread *)
let quartiles a = if Array.length a < 2 then (a.(0), a.(0)) else Stat.quartiles a

let verdict (m : metric) a b =
  let med_a = Stat.median a and med_b = Stat.median b in
  let qa1, qa3 = quartiles a and qb1, qb3 = quartiles b in
  let iqr_a = qa3 -. qa1 in
  let better x y = if m.lower_better then x < y else x > y in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr wins
  done;
  let worse_by = (if m.lower_better then med_b -. med_a else med_a -. med_b) /. med_a in
  let v =
    if pairs > 0 && 10 * !wins >= 9 * pairs && better med_b med_a
       && Float.abs (med_b -. med_a) > iqr_a
    then "improved"
    else if iqr_a /. med_a > m.bound || (qb3 -. qb1) /. med_b > m.bound then "unresolved"
    else if worse_by > m.bound then "regressed"
    else "unchanged"
  in
  let show med q1 q3 = Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3 in
  (v, show med_a qa1 qa3, show med_b qb1 qb3, !wins, pairs)

let run ~benchmark a_files b_files =
  let e2e, _ = load_benchmark benchmark in
  let a = List.map load_result a_files and b = List.map load_result b_files in
  let workloads = List.sort_uniq compare (List.map fst a) in
  let values side w k =
    Array.of_list
      (List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt k ms else None) side)
  in
  Printf.printf "%-18s %-16s %-28s %-28s %-6s %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "wins" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun (m : metric) ->
          let va = values a w m.name and vb = values b w m.name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let v, sa, sb, wins, pairs = verdict m va vb in
            if v = "regressed" then regressed := true;
            Printf.printf "%-18s %-16s %-28s %-28s %-6s %s\n" w m.name sa sb
              (Printf.sprintf "%d/%d" wins pairs)
              v
          end)
        e2e)
    workloads;
  if !regressed then 1 else 0

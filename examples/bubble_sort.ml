(* The paper's §5 example of a quantified statement family:

     ⟨ □ i : 0 ≤ i < n : x[i], x[i+1] := x[i+1], x[i]  if  x[i] > x[i+1] ⟩

   "The quantified program is a nondeterministic bubble sort which reaches
   a fixed point when the array is sorted."
   Run with:  dune exec examples/bubble_sort.exe *)

open Kpt_predicate
open Kpt_unity

let () =
  let n = 4 and maxv = 3 in
  let sp = Space.create () in
  let arr = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:maxv) in
  let swaps =
    List.init (n - 1) (fun i ->
        Stmt.make
          ~name:(Printf.sprintf "swap%d" i)
          ~guard:Expr.(var arr.(i) >>> var arr.(i + 1))
          [ (arr.(i), Expr.var arr.(i + 1)); (arr.(i + 1), Expr.var arr.(i)) ])
  in
  let prog = Program.make sp ~name:"bubble_sort" ~init:Expr.tru swaps in
  Format.printf "%a@.@." Program.pp prog;

  (* Fixed points = sorted arrays, exactly (§5's remark). *)
  let sorted =
    Expr.compile_bool sp
      (Expr.conj (List.init (n - 1) (fun i -> Expr.(var arr.(i) <== var arr.(i + 1)))))
  in
  let fp = Program.fixed_points prog in
  Format.printf "fixed points = sorted arrays : %b@." (Pred.equivalent sp fp sorted);

  (* Under fairness, every array eventually becomes sorted. *)
  let m = Space.manager sp in
  Format.printf "true ↦ sorted              : %b@."
    (Kpt_logic.Props.leads_to prog (Bdd.tru m) sorted);

  (* And sortedness, once reached, is stable. *)
  Format.printf "stable sorted               : %b@." (Kpt_logic.Props.stable prog sorted);

  (* Count the sorted states among all states. *)
  Format.printf "%a of %a states are sorted (multisets with repetition).@." Bigcount.pp
    (Space.count_states_exact sp sorted)
    Bigcount.pp (Space.state_count_exact sp)

(* The coordinated attack problem — why common knowledge matters.
   Run with:  dune exec examples/coordinated_attack.exe

   Two generals must attack together; messengers can be lost.  The classic
   impossibility (discussed at length in [HM90], which the paper builds
   on): no finite number of acknowledgements ever produces COMMON
   knowledge of the attack order, so a protocol whose guard is
   C_{A,B}(order delivered) never attacks.

   We model a four-deep acknowledgement chain over a lossy channel:
     d1 = B received the order          (A → B)
     d2 = A received B's ack            (B → A)
     d3 = B received A's ack-ack        (A → B)
     d4 = A received B's ack-ack-ack    (B → A)
   Each may forever fail to arrive; each arrives only after the previous.
   General A sees {d2, d4}; B sees {d1, d3}.

   We compute the everyone-knows tower E, E², E³ … and the common
   knowledge fixpoint C with the genuine transformers and watch the tower
   die exactly at the depth of the available evidence. *)

open Kpt_predicate
open Kpt_unity
open Kpt_core

let () =
  let sp = Space.create () in
  let d = Array.init 4 (fun k -> Space.bool_var sp (Printf.sprintf "d%d" (k + 1))) in
  let a = Process.make "A" [ d.(1); d.(3) ] in
  let b = Process.make "B" [ d.(0); d.(2) ] in
  let open Expr in
  let deliver k =
    let guard = if k = 0 then tru else var d.(k - 1) in
    Stmt.make ~name:(Printf.sprintf "deliver%d" (k + 1)) ~guard [ (d.(k), tru) ]
  in
  (* a no-op models the messenger being lost this round *)
  let lose = Stmt.make ~name:"lose" [ (d.(0), var d.(0)) ] in
  let prog =
    Program.make sp ~name:"coordinated_attack"
      ~init:(conj (List.init 4 (fun k -> not_ (var d.(k)))))
      ~processes:[ a; b ]
      (List.init 4 deliver @ [ lose ])
  in
  Format.printf "%a@.@." Program.pp prog;

  let m = Space.manager sp in
  let si = Program.si prog in
  let order_received = Expr.compile_bool sp (var d.(0)) in
  let group = [ a; b ] in
  let e p = Knowledge.everyone_knows sp ~si group p in

  (* the state with the deepest possible evidence *)
  let full = Space.pred_of_state sp [| 1; 1; 1; 1 |] in
  let holds_at_full p = Bdd.implies m (Bdd.and_ m si full) p in

  Format.printf "At the deepest reachable state (all four messages delivered):@.";
  let rec tower k p =
    if k > 5 then ()
    else begin
      Format.printf "  E^%d(order received) holds : %b@." k (holds_at_full p);
      tower (k + 1) (e p)
    end
  in
  tower 0 order_received;

  let c = Knowledge.common_knowledge sp ~si group order_received in
  Format.printf "@.C_{A,B}(order received) at that state : %b@." (holds_at_full c);
  Format.printf "C_{A,B}(order received) anywhere       : %b@."
    (not (Bdd.is_false (Pred.normalize sp (Bdd.and_ m si c))));
  Format.printf
    "@.→ every finite acknowledgement chain leaves the last messenger in doubt:@.";
  Format.printf "  common knowledge — hence a coordinated attack — is unattainable.@.@.";

  (* And as a knowledge-based protocol: guards demanding common knowledge
     never fire, so the attack statements are dead in every solution. *)
  let attack_a = Space.bool_var sp "attack_a" in
  let attack_b = Space.bool_var sp "attack_b" in
  let kbp =
    Kbp.make sp ~name:"generals"
      ~init:(conj (List.init 4 (fun k -> not_ (var d.(k))) @ [ not_ (var attack_a); not_ (var attack_b) ]))
      ~processes:[ Process.make "A" [ d.(1); d.(3); attack_a ]; Process.make "B" [ d.(0); d.(2); attack_b ] ]
      ([
         Kbp.kstmt ~name:"attackA"
           ~guard:(Kform.ck [ "A"; "B" ] (Kform.base (var d.(0))))
           [ (attack_a, tru) ];
         Kbp.kstmt ~name:"attackB"
           ~guard:(Kform.ck [ "A"; "B" ] (Kform.base (var d.(0))))
           [ (attack_b, tru) ];
       ]
      @ List.map
          (fun s -> Kbp.kstmt ~name:(Stmt.name s ^ "'") ~guard:(Kform.base tru) s.Stmt.assigns)
          []
      @ List.init 4 (fun k ->
            let guard = if k = 0 then Kform.base tru else Kform.base (var d.(k - 1)) in
            Kbp.kstmt ~name:(Printf.sprintf "dlv%d" (k + 1)) ~guard [ (d.(k), tru) ]))
  in
  (match Kbp.solve kbp with
  | Kbp.Converged { si = si'; _ } ->
      let never_attack =
        Bdd.implies m si'
          (Expr.compile_bool sp (not_ (var attack_a) &&& not_ (var attack_b)))
      in
      Format.printf "KBP with guard C_{A,B}(d1): solution found; attack never happens : %b@."
        never_attack
  | _ -> Format.printf "KBP iteration cycled (unexpected here)@.")

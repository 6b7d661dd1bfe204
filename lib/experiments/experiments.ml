open Kpt_predicate
open Kpt_unity
open Kpt_core
open Kpt_protocols

let row fmt label expected got =
  let ok = expected = got in
  Format.fprintf fmt "  %-58s paper:%-6b measured:%-6b %s@." label expected got
    (if ok then "✓" else "✗ MISMATCH");
  ok

let header fmt title = Format.fprintf fmt "@.── %s ──@." title

(* ---- shared model builders --------------------------------------------- *)

let figure1 () =
  let sp = Space.create () in
  let shared = Space.bool_var sp "shared" in
  let x = Space.bool_var sp "x" in
  let p0 = Process.make "P0" [ shared ] in
  let p1 = Process.make "P1" [ shared; x ] in
  let s0 =
    Kbp.kstmt ~name:"s0"
      ~guard:(Kform.k "P0" (Kform.knot (Kform.base (Expr.var x))))
      [ (shared, Expr.tru) ]
  in
  let s1 =
    Kbp.kstmt ~name:"s1" ~guard:(Kform.base (Expr.var shared))
      [ (x, Expr.tru); (shared, Expr.fls) ]
  in
  Kbp.make sp ~name:"figure1"
    ~init:Expr.(not_ (var shared) &&& not_ (var x))
    ~processes:[ p0; p1 ] [ s0; s1 ]

let figure2 ~strong =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let y = Space.bool_var sp "y" in
  let z = Space.bool_var sp "z" in
  let p0 = Process.make "P0" [ y ] in
  let p1 = Process.make "P1" [ z ] in
  let s0 = Kbp.kstmt ~name:"s0" ~guard:(Kform.k "P0" (Kform.base (Expr.var x))) [ (y, Expr.tru) ] in
  let s1 =
    Kbp.kstmt ~name:"s1"
      ~guard:(Kform.k "P1" (Kform.knot (Kform.base (Expr.var y))))
      [ (z, Expr.tru) ]
  in
  let init = if strong then Expr.(not_ (var y) &&& var x) else Expr.(not_ (var y)) in
  Kbp.make sp ~name:"figure2" ~init ~processes:[ p0; p1 ] [ s0; s1 ]

(* ---- E1 ----------------------------------------------------------------- *)

let e1_figure1 fmt =
  header fmt "E1 · Figure 1: a knowledge-based protocol with no solution";
  let kbp = figure1 () in
  let sols = Kbp.solutions kbp in
  let ok1 = row fmt "number of solutions of Ĝ(X) = X is zero" true (sols = []) in
  let cycle_len =
    match Kbp.solve kbp with Kbp.Diverged { orbit; _ } -> List.length orbit | _ -> 0
  in
  let ok2 = row fmt "chaotic iteration enters a cycle (period 2)" true (cycle_len = 2) in
  ok1 && ok2

(* ---- E2 ----------------------------------------------------------------- *)

let e2_figure2 fmt =
  header fmt "E2 · Figure 2: SI not monotonic in the initial condition";
  let weak = figure2 ~strong:false and strong = figure2 ~strong:true in
  let sp1 = Kbp.space weak and sp2 = Kbp.space strong in
  let y1 = Space.find sp1 "y" and z1 = Space.find sp1 "z" in
  let x2 = Space.find sp2 "x" and z2 = Space.find sp2 "z" in
  let si1 = match Kbp.solutions weak with [ s ] -> s | _ -> Bdd.fls (Space.manager sp1) in
  let si2 = match Kbp.solutions strong with [ s ] -> s | _ -> Bdd.fls (Space.manager sp2) in
  let ok1 =
    row fmt "SI under init = ¬y is exactly ¬y" true
      (Pred.equivalent sp1 si1 (Expr.compile_bool sp1 Expr.(not_ (var y1))))
  in
  let ok2 =
    row fmt "SI under init = ¬y ∧ x is exactly x" true
      (Pred.equivalent sp2 si2 (Expr.compile_bool sp2 (Expr.var x2)))
  in
  let live sp kbp si z =
    Kpt_logic.Props.leads_to (Kbp.instantiate kbp ~si) (Bdd.tru (Space.manager sp))
      (Expr.compile_bool sp (Expr.var z))
  in
  let ok3 = row fmt "true ↦ z holds under the weak init" true (live sp1 weak si1 z1) in
  let ok4 = row fmt "true ↦ z FAILS under the stronger init" false (live sp2 strong si2 z2) in
  let sts sp si = List.map Array.to_list (Space.states_of sp si) in
  let ok5 =
    row fmt "SI₂ ⇏ SI₁ although init₂ ⇒ init₁ (non-monotonicity)" false
      (List.for_all (fun s -> List.mem s (sts sp1 si1)) (sts sp2 si2))
  in
  ok1 && ok2 && ok3 && ok4 && ok5

(* ---- E3 ----------------------------------------------------------------- *)

let e3_figure3 fmt =
  header fmt "E3 · Figure 3: knowledge-based sequence transmission (n=2, |A|=2)";
  let ab = Seqtrans.abstract_kbp { Seqtrans.n = 2; a = 2 } in
  let thms = Seqtrans_proofs.replay_abstract ab in
  let unconditional = List.for_all (fun (_, t) -> Kpt_logic.Proof.assumptions t = []) thms in
  let ok1 =
    row fmt
      (Printf.sprintf "kernel replay: %d theorems, all assumption-free" (List.length thms))
      true unconditional
  in
  let ok2 =
    row fmt "safety (34) holds semantically" true
      (Program.invariant ab.Seqtrans.aprog (Seqtrans.a_spec_safety ab))
  in
  let ok3 =
    row fmt "liveness (35) holds semantically (k = 0, 1)" true
      (Seqtrans.a_spec_liveness_holds ab ~k:0 && Seqtrans.a_spec_liveness_holds ab ~k:1)
  in
  ok1 && ok2 && ok3

(* ---- E4 ----------------------------------------------------------------- *)

let e4_figure4 fmt =
  header fmt "E4 · Figure 4: the standard protocol (n=2, |A|=2)";
  let lossy = Seqtrans.standard ~lossy:true { Seqtrans.n = 2; a = 2 } in
  let dup = Seqtrans.standard ~lossy:false { Seqtrans.n = 2; a = 2 } in
  let prog = lossy.Seqtrans.sprog in
  let ok1 = row fmt "safety (34) on the lossy channel" true (Program.invariant prog (Seqtrans.spec_safety lossy)) in
  let ok2 =
    row fmt "invariants (54),(61),(62) hold" true
      (Program.invariant prog (Seqtrans.inv54 lossy ~k:1)
      && Program.invariant prog (Seqtrans.inv61 lossy ~k:0 ~alpha:1)
      && Program.invariant prog (Seqtrans.inv62 lossy ~k:0))
  in
  let ok3 =
    row fmt "stability (55),(56) hold" true
      (Seqtrans.stable55_holds lossy ~k:0 && Seqtrans.stable56_holds lossy ~k:0 ~alpha:1)
  in
  let ok4 =
    row fmt "liveness FAILS on the maximal lossy channel" false
      (Seqtrans.spec_liveness_holds lossy ~k:0)
  in
  let ok5 =
    row fmt "liveness holds once St-3/St-4 are satisfied (dup-only)" true
      (Seqtrans.spec_liveness_holds dup ~k:0 && Seqtrans.spec_liveness_holds dup ~k:1)
  in
  let thms = Seqtrans_proofs.replay_standard ~assume_channel:true lossy in
  let liveness_conditional =
    List.for_all
      (fun (name, t) ->
        let a = Kpt_logic.Proof.assumptions t in
        if String.length name >= 8 && String.sub name 0 8 = "liveness" then a = [ "St-3"; "St-4" ]
        else a = [])
      thms
  in
  let ok6 = row fmt "kernel replay: liveness assumes exactly St-3, St-4" true liveness_conditional in
  let m = Space.manager lossy.Seqtrans.sspace in
  let si = Program.si prog in
  let equal_k =
    List.for_all
      (fun (k, alpha) ->
        Bdd.is_true
          (Bdd.imp m si
             (Bdd.iff m (Seqtrans.cand_kr lossy ~k ~alpha) (Seqtrans.real_kr lossy ~k ~alpha))))
      [ (0, 0); (0, 1); (1, 0); (1, 1) ]
    && List.for_all
         (fun k ->
           Bdd.is_true
             (Bdd.imp m si
                (Bdd.iff m (Seqtrans.cand_kskr lossy ~k) (Seqtrans.real_kskr lossy ~k))))
         [ 0; 1 ]
  in
  let ok7 = row fmt "(50)/(51) ≡ the knowledge predicates ([HZar] Prop 4.5)" true equal_k in
  ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7

(* ---- E5 ----------------------------------------------------------------- *)

let e5_laws fmt =
  header fmt "E5 · Laws (7)-(24): wcyl, S5 and junctivity";
  (* the paper's own counterexample to (12) *)
  let sp = Space.create () in
  let x = Space.nat_var sp "x" ~max:3 in
  let y = Space.nat_var sp "y" ~max:3 in
  let m = Space.manager sp in
  let gt0 v = Expr.compile_bool sp Expr.(var v >>> nat 0) in
  let f = Wcyl.wcyl sp [ x ] in
  let p = Bdd.and_ m (gt0 x) (gt0 y) in
  let q = Bdd.and_ m (gt0 x) (Bdd.not_ m (gt0 y)) in
  let ok1 =
    row fmt "(12) wcyl.x.(x>0∧y>0) = wcyl.x.(x>0∧y≤0) = false" true
      (Bdd.is_false (Pred.normalize sp (f p)) && Bdd.is_false (Pred.normalize sp (f q)))
  in
  let ok2 =
    row fmt "(12) while wcyl.x.(x>0) = x>0: disjunctivity fails" true
      (Pred.equivalent sp (f (Bdd.or_ m p q)) (gt0 x))
  in
  (* S5 on the standard protocol's receiver *)
  let st = Seqtrans.standard ~lossy:false { Seqtrans.n = 2; a = 2 } in
  let k pr = Kpt_core.Knowledge.knows_in st.Seqtrans.sprog "Receiver" pr in
  let fact = Expr.compile_bool st.Seqtrans.sspace Expr.(var st.Seqtrans.xs.(0) === nat 1) in
  let sp2 = st.Seqtrans.sspace in
  let ok3 =
    row fmt "(14) K p ⇒ p and (16) K p ≡ K K p on the protocol" true
      (Pred.holds_implies sp2 (k fact) fact && Pred.equivalent sp2 (k fact) (k (k fact)))
  in
  let m2 = Space.manager sp2 in
  let ok4 =
    row fmt "(17) ¬K p ≡ K ¬K p" true
      (Pred.equivalent sp2 (Bdd.not_ m2 (k fact)) (k (Bdd.not_ m2 (k fact))))
  in
  let ok5 =
    row fmt "(23) invariant p ≡ invariant K p" true
      (Program.invariant st.Seqtrans.sprog fact
      = Program.invariant st.Seqtrans.sprog (k fact))
  in
  ok1 && ok2 && ok3 && ok4 && ok5

(* ---- E6 ----------------------------------------------------------------- *)

let e6_apriori fmt =
  header fmt "E6 · §6.4: a priori knowledge of x₀";
  let v = Apriori.instantiation_breaks { Seqtrans.n = 2; a = 2 } ~known_value:1 in
  let ok1 = row fmt "(50) remains sound under pinned x₀" true v.Apriori.cand_implies_k in
  let ok2 = row fmt "(50) is NO LONGER the weakest predicate" false v.Apriori.k_implies_cand in
  let ok3 =
    row fmt "the standard protocol still meets the specification" true
      (v.Apriori.still_safe && v.Apriori.still_live)
  in
  let p = { Seqtrans.n = 4; a = 2 } in
  let _, data_std, _ = Apriori.average_counts (fun seed -> Apriori.run_standard ~seed p) ~seeds:10 in
  let _, data_opt, _ = Apriori.average_counts (fun seed -> Apriori.run_optimal ~seed p) ~seeds:10 in
  Format.fprintf fmt "  data transmissions (mean over 10 runs, n=4): standard %.1f vs optimal %.1f@."
    data_std data_opt;
  let ok4 = row fmt "knowledge-optimal variant sends fewer messages" true (data_opt < data_std) in
  ok1 && ok2 && ok3 && ok4

(* ---- E7 ----------------------------------------------------------------- *)

let e7_sst fmt =
  header fmt "E7 · sst monotone for standard programs; Ĝ non-monotone for KBPs";
  let rng = Stdlib.Random.State.make [| 17 |] in
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let y = Space.bool_var sp "y" in
  let s1 = Stmt.make ~name:"s1" ~guard:(Expr.var x) [ (y, Expr.tru) ] in
  let s2 = Stmt.make ~name:"s2" [ (x, Expr.(var x ||| var y)) ] in
  let prog = Program.make sp ~name:"std" ~init:Expr.tru [ s1; s2 ] in
  let ok1 =
    row fmt "sst of a standard program is monotone (eq. 4)" true
      (Junctivity.monotonic sp (Program.sst prog) ~samples:8 rng = None)
  in
  let kbp = figure1 () in
  let ok2 =
    row fmt "Ĝ of Figure 1's KBP is NOT monotone (§4)" false
      (Junctivity.monotonic (Kbp.space kbp) (Kbp.g_operator kbp) ~samples:8 rng = None)
  in
  ok1 && ok2

(* ---- E8 ----------------------------------------------------------------- *)

let e8_crossval fmt =
  header fmt "E8 · predicate-transformer K ≡ run-based view knowledge ([HM90])";
  let st = Seqtrans.standard ~lossy:true { Seqtrans.n = 2; a = 2 } in
  let ok1 =
    row fmt "explicit reachable set = symbolic SI" true
      (Kpt_runs.Reachability.si_agrees st.Seqtrans.sprog)
  in
  let fact =
    Expr.compile_bool st.Seqtrans.sspace Expr.(var st.Seqtrans.xs.(0) === nat 1)
  in
  let ok2 =
    row fmt "K_Receiver(x₀ = 1) = view-based knowledge" true
      (Kpt_runs.Reachability.knowledge_agrees st.Seqtrans.sprog "Receiver" fact)
  in
  ok1 && ok2

(* ---- E9 ----------------------------------------------------------------- *)

(* A channel protocol of the section-6 table ([Builtin]), built over the
   given fault model at [params]. *)
let builtin name model params =
  match Builtin.find name with
  | Some { Builtin.build = Builtin.On_channel build; _ } -> build model params
  | _ -> invalid_arg ("Experiments.builtin: no channel protocol " ^ name)

let safe (t : Builtin.instance) = Program.invariant t.Builtin.prog (Builtin.safety t)
let live t ~n = List.for_all (fun k -> Builtin.liveness_holds t ~k) (List.init n Fun.id)

let e9_refinements fmt =
  header fmt "E9 · the protocol family: ABP, Stenning, AUY";
  let params = { Seqtrans.n = 2; a = 2 } in
  let dup name = builtin name Kpt_fault.Model.duplicating params in
  let abp = dup "abp" in
  let ok1 =
    row fmt "ABP meets the spec (safety + liveness, dup-only channel)" true
      (safe abp && live abp ~n:2)
  in
  let abl = builtin "abp" Kpt_fault.Model.lossy params in
  let ok2 =
    row fmt "ABP stays SAFE under loss+duplication, liveness fails" true
      (safe abl && not (Builtin.liveness_holds abl ~k:0))
  in
  let stn = dup "stenning" in
  let ok3 = row fmt "Stenning meets the spec" true (safe stn && live stn ~n:2) in
  let auy = Auy.make { Seqtrans.n = 2; a = 4 } in
  let ok4 =
    row fmt "AUY synchronous model meets the spec" true
      (Program.invariant auy.Auy.prog (Auy.safety auy) && Auy.liveness_holds auy ~k:0)
  in
  Format.fprintf fmt "  AUY economy: %d bits per element for |A| = 4 (no acks, no seq numbers)@."
    (Auy.messages_per_element auy);
  let win = dup "window" in
  let ok5 = row fmt "sliding window (w=2) meets the spec" true (safe win && live win ~n:2) in
  let steps w =
    let t = Window.make ~lossy:false ~window:w { Seqtrans.n = 4; a = 2 } in
    let total = ref 0 in
    for seed = 1 to 8 do total := !total + Window.simulate_steps ~seed t done;
    !total / 8
  in
  let s1 = steps 1 and s2 = steps 2 in
  Format.fprintf fmt "  pipelining: mean steps to deliver n=4 — window 1: %d, window 2: %d@." s1 s2;
  let ok6 = row fmt "wider window pipelines (fewer steps)" true (s2 < s1) in
  ok1 && ok2 && ok3 && ok4 && ok5 && ok6

(* ---- E10 ---------------------------------------------------------------- *)

let e10_extensions fmt =
  header fmt "E10 · extensions: knowledge dynamics, view spectrum, refinement";
  let st = Seqtrans.standard ~lossy:true { Seqtrans.n = 2; a = 2 } in
  let sp = st.Seqtrans.sspace in
  let prog = st.Seqtrans.sprog in
  let j_ge_1 = Expr.compile_bool sp Expr.(var st.Seqtrans.j >== nat 1) in
  let ok1 =
    row fmt "Figure 4 encodes its own recall: K_S(j ≥ 1) never forgotten" true
      (Kpt_core.Kflow.knowledge_stable prog "Sender" j_ge_1)
  in
  let i0 = Expr.compile_bool sp Expr.(var st.Seqtrans.i === nat 0) in
  let ok2 =
    row fmt "…while K_R(i = 0) is destroyed by the receiver's own steps" false
      (Kpt_core.Kflow.knowledge_stable prog "Receiver" i0)
  in
  (* view spectrum on the evidence-overwriting observer *)
  let osp = Space.create () in
  let secret = Space.bool_var osp "secret" in
  let r = Space.nat_var osp "r" ~max:2 in
  let oproc = Process.make "O" [ r ] in
  let obs =
    Program.make osp ~name:"observer" ~init:Expr.(var r === nat 0)
      ~processes:[ oproc; Process.make "S" [ secret ] ]
      [
        Stmt.make ~name:"observe" [ (r, Expr.(Ite (var secret, nat 2, nat 1))) ];
        Stmt.make ~name:"clear" [ (r, Expr.nat 0) ];
      ]
  in
  let sys = Kpt_runs.Interpreted.build ~depth:4 obs in
  let fact = Expr.compile_bool osp (Expr.var secret) in
  let ok3 =
    row fmt "perfect recall strictly refines the paper's state view" true
      (Kpt_runs.Interpreted.recall_strictly_finer_somewhere sys oproc fact obs <> None)
  in
  let dup = Seqtrans.standard ~lossy:false { Seqtrans.n = 2; a = 2 } in
  let map = Kpt_logic.Refine.project dup.Seqtrans.sspace sp [] in
  let ok4 =
    row fmt "dup-only channel refines the lossy one (safety transfers)" true
      (Kpt_logic.Refine.transfers_invariant ~abstract:prog ~concrete:dup.Seqtrans.sprog ~map
         (Seqtrans.spec_safety st))
  in
  let tpc = Commit.make ~participants:2 () in
  let ok5 =
    row fmt "2PC: the commit guard ≡ K_C(unanimity) (another Prop 4.5)" true
      (Commit.guard_is_knowledge tpc)
  in
  let ok6 =
    row fmt "2PC: distributed knowledge precedes individual knowledge" true
      (Commit.distributed_but_not_individual tpc)
  in
  let tpc_crash = Commit.make ~crashes:true ~participants:2 () in
  let ok7 =
    row fmt "2PC blocks under crash failures ([DM90] axis)" true
      (Commit.blocking_witness tpc_crash <> None
      && Commit.safety_holds tpc_crash
      && not (Commit.decision_live tpc_crash))
  in
  ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7

let run_all fmt =
  let all =
    [
      ("E1 figure 1", e1_figure1);
      ("E2 figure 2", e2_figure2);
      ("E3 figure 3", e3_figure3);
      ("E4 figure 4", e4_figure4);
      ("E5 laws 7-24", e5_laws);
      ("E6 a priori", e6_apriori);
      ("E7 sst/Ĝ", e7_sst);
      ("E8 crossval", e8_crossval);
      ("E9 refinements", e9_refinements);
      ("E10 extensions", e10_extensions);
    ]
  in
  List.map (fun (name, f) -> (name, f fmt)) all

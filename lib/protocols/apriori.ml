open Kpt_predicate
open Kpt_unity

type verdict = {
  cand_implies_k : bool;
  k_implies_cand : bool;
  still_safe : bool;
  still_live : bool;
}

let pin_x0 (st : Seqtrans.standard) value =
  let sp = st.sspace in
  let m = Space.manager sp in
  let pinned =
    Bdd.and_ m (Program.init st.sprog)
      (Expr.compile_bool sp Expr.(var st.xs.(0) === nat value))
  in
  Program.make_with_init_pred sp
    ~name:(Program.name st.sprog ^ "_apriori")
    ~init:pinned
    ~processes:(Program.processes st.sprog)
    (Program.statements st.sprog)

let instantiation_breaks params ~known_value =
  let st = Seqtrans.standard ~lossy:false params in
  let sp = st.sspace in
  let m = Space.manager sp in
  let prog = pin_x0 st known_value in
  let si = Program.si prog in
  let cand = Seqtrans.cand_kr st ~k:0 ~alpha:known_value in
  let real =
    Kpt_core.Knowledge.knows sp ~si
      (Program.find_process prog "Receiver")
      (Expr.compile_bool sp Expr.(var st.xs.(0) === nat known_value))
  in
  let jlive k =
    Kpt_logic.Props.leads_to prog
      (Expr.compile_bool sp Expr.(var st.j === nat k))
      (Expr.compile_bool sp Expr.(var st.j >>> nat k))
  in
  {
    cand_implies_k = Bdd.implies m (Bdd.and_ m si cand) real;
    k_implies_cand = Bdd.implies m (Bdd.and_ m si real) cand;
    still_safe = Program.invariant prog (Seqtrans.spec_safety st);
    still_live = List.for_all (fun k -> jlive k) (List.init params.Seqtrans.n (fun k -> k));
  }

type counts = { steps_to_done : int; data_transmissions : int; ack_transmissions : int }

(* Build a concrete initial state directly (enumerating init states would
   traverse the whole space). *)
let initial_state (st : Seqtrans.standard) rng ~optimal =
  let sp = st.sspace in
  let a = st.sparams.Seqtrans.a in
  let nvars = List.length (Space.vars sp) in
  let state = Array.make nvars 0 in
  let set v value = state.(Space.idx v) <- value in
  Array.iter (fun x -> set x (Random.State.int rng a)) st.xs;
  let i0 = if optimal then 1 else 0 in
  set st.i i0;
  set st.y state.(Space.idx st.xs.(i0));
  set st.j (if optimal then 1 else 0);
  Array.iteri (fun k w -> set w (if optimal && k = 0 then state.(Space.idx st.xs.(0)) else 0)) st.ws;
  set st.z st.ack.Channel.codec.Channel.bot;
  set st.zp st.data.Channel.codec.Channel.bot;
  set st.data.Channel.slot st.data.Channel.codec.Channel.bot;
  set st.data.Channel.avail st.data.Channel.codec.Channel.bot;
  set st.ack.Channel.slot st.ack.Channel.codec.Channel.bot;
  set st.ack.Channel.avail st.ack.Channel.codec.Channel.bot;
  state

let simulate (st : Seqtrans.standard) ~seed ~optimal =
  let sp = st.sspace in
  let { Seqtrans.n; _ } = st.sparams in
  let rng = Stdlib.Random.State.make [| seed |] in
  let stmts = Array.of_list (Program.statements st.sprog) in
  let state = ref (initial_state st rng ~optimal) in
  let steps = ref 0 and data = ref 0 and ack = ref 0 in
  let enabled s =
    match s.Stmt.guard with
    | Stmt.Gexpr e -> Expr.eval_bool e (fun v -> !state.(Space.idx v))
    | Stmt.Gpred p -> Space.holds_at sp p !state
  in
  while !state.(Space.idx st.j) < n && !steps < 1_000_000 do
    let s = stmts.(Stdlib.Random.State.int rng (Array.length stmts)) in
    if enabled s then begin
      match Stmt.name s with
      | "snd_tx" -> incr data
      | "rcv_ack" -> incr ack
      | _ -> ()
    end;
    state := Stmt.exec sp s !state;
    incr steps
  done;
  { steps_to_done = !steps; data_transmissions = !data; ack_transmissions = !ack }

let run_standard ?(seed = 1) params =
  simulate (Seqtrans.standard ~lossy:false params) ~seed ~optimal:false

let run_optimal ?(seed = 1) params =
  simulate (Seqtrans.standard ~lossy:false params) ~seed ~optimal:true

let average_counts run ~seeds =
  let totals = ref (0, 0, 0) in
  for seed = 1 to seeds do
    let c = run seed in
    let a, b, d = !totals in
    totals := (a + c.steps_to_done, b + c.data_transmissions, d + c.ack_transmissions)
  done;
  let a, b, d = !totals in
  let f x = float_of_int x /. float_of_int seeds in
  (f a, f b, f d)

let pp_counts fmt c =
  Format.fprintf fmt "steps=%d data_tx=%d ack_tx=%d" c.steps_to_done c.data_transmissions
    c.ack_transmissions

let si_of = Program.si

open Kpt_predicate
open Kpt_unity

type params = { n : int; a : int }

let params_error { n; a } =
  if n < 2 then Some "horizon n must be ≥ 2"
  else if a < 2 then Some "alphabet size a must be ≥ 2 (no a priori knowledge)"
  else None

let check_params params =
  Option.iter (fun e -> invalid_arg ("Seqtrans: " ^ e)) (params_error params)

(* ---- the specification (34)-(35), shared by every §6 protocol ---------- *)

let safety sp ~j ~ws ~xs =
  Expr.compile_bool sp
    (Expr.conj
       (List.init (Array.length ws) (fun k ->
            Expr.((var j >>> nat k) ==> (var ws.(k) === var xs.(k))))))

let liveness_holds prog ~j ~k =
  let sp = Program.space prog in
  Kpt_logic.Props.leads_to prog
    (Expr.compile_bool sp Expr.(var j === nat k))
    (Expr.compile_bool sp Expr.(var j >>> nat k))

(* ---- the standard protocol (Figure 4) ---------------------------------- *)

type standard = {
  sprog : Program.t;
  sspace : Space.t;
  sparams : params;
  xs : Space.var array;
  ws : Space.var array;
  y : Space.var;
  i : Space.var;
  j : Space.var;
  z : Space.var;
  zp : Space.var;
  data : Channel.t;
  ack : Channel.t;
}

let standard ?(lossy = true) ?fault ({ n; a } as params) =
  check_params params;
  let fault = Channel.resolve_fault ~lossy fault in
  let sp = Space.create () in
  let xs = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:(a - 1)) in
  let y = Space.nat_var sp "y" ~max:(a - 1) in
  let i = Space.nat_var sp "i" ~max:(n - 1) in
  let ws = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "w%d" k) ~max:(a - 1)) in
  let j = Space.nat_var sp "j" ~max:n in
  let dcodec = Channel.pair_codec ~n ~a in
  let acodec = Channel.nat_codec ~max:n in
  let data = Channel.declare sp ~name:"data" dcodec in
  let ack = Channel.declare sp ~name:"ack" acodec in
  let z = Channel.register sp ~name:"z" acodec in
  let zp = Channel.register sp ~name:"zp" dcodec in
  let open Expr in
  (* z = i + 1: everything at or below i is acknowledged. *)
  let acked = var z === var i +! nat 1 in
  let snd_tx =
    Stmt.make ~name:"snd_tx" ~guard:(not_ acked)
      [ Channel.transmit data [ var i; var y ]; Channel.receive ack z ]
  in
  let snd_adv =
    Stmt.make ~name:"snd_adv"
      ~guard:(acked &&& (var i <<< nat (n - 1)))
      [ (y, select xs (var i +! nat 1)); (i, var i +! nat 1); Channel.receive ack z ]
  in
  (* z' = (j, α): the receive register holds the next needed element.  The
     j < n conjunct keeps the encoding honest: (n, α) is not a message. *)
  let zp_is_j alpha =
    (var zp === Channel.mul_const a (var j) +! nat alpha) &&& (var j <<< nat n)
  in
  let rcv_write alpha =
    Stmt.make
      ~name:(Printf.sprintf "rcv_write%d" alpha)
      ~guard:(zp_is_j alpha)
      (Stmt.array_write ws ~index:(var j) (nat alpha)
      @ [ (j, var j +! nat 1); Channel.receive data zp ])
  in
  let rcv_ack =
    Stmt.make ~name:"rcv_ack"
      ~guard:(not_ (disj (List.init a zp_is_j)))
      [ Channel.transmit ack [ var j ]; Channel.receive data zp ]
  in
  let env, fault_init = Channel.network sp fault [ ("data", data); ("ack", ack) ] in
  let init =
    conj
      ([
         var y === var xs.(0);
         var i === nat 0;
         var j === nat 0;
         var z === nat acodec.Channel.bot;
         var zp === nat dcodec.Channel.bot;
       ]
      @ List.init n (fun k -> var ws.(k) === nat 0)
      @ [ Channel.init_expr data; Channel.init_expr ack ]
      @ fault_init)
  in
  let sender = Process.make "Sender" (Array.to_list xs @ [ y; i; z ]) in
  let receiver = Process.make "Receiver" (Array.to_list ws @ [ zp; j ]) in
  let prog =
    Program.make sp
      ~name:("seqtrans_standard" ^ Channel.fault_suffix fault)
      ~init
      ~processes:[ sender; receiver ]
      ([ snd_tx; snd_adv ] @ List.init a rcv_write @ [ rcv_ack ] @ env)
  in
  { sprog = prog; sspace = sp; sparams = params; xs; ws; y; i; j; z; zp; data; ack }

let bp st e = Expr.compile_bool st.sspace e
let spec_safety st = safety st.sspace ~j:st.j ~ws:st.ws ~xs:st.xs
let spec_liveness_holds st ~k = liveness_holds st.sprog ~j:st.j ~k

(* z ≥ k with z ≠ ⊥ : z ≤ n ∧ z ≥ k. *)
let z_ge st k =
  let { n; _ } = st.sparams in
  Expr.((var st.z <== nat n) &&& (var st.z >== nat k))

let inv54 st ~k = bp st Expr.(z_ge st k ==> (var st.j >== nat k))

let cand_kr_expr st ~k ~alpha =
  let { a; _ } = st.sparams in
  Expr.(
    ((var st.j === nat k) &&& (var st.zp === nat ((k * a) + alpha)))
    ||| ((var st.j >>> nat k) &&& (var st.ws.(k) === nat alpha)))

let cand_kr st ~k ~alpha = bp st (cand_kr_expr st ~k ~alpha)

let cand_kskr_expr st ~k =
  Expr.(((var st.i === nat k) &&& (var st.z === nat (k + 1))) ||| (var st.i >>> nat k))

let cand_kskr st ~k = bp st (cand_kskr_expr st ~k)
let cand_ksj st ~k = bp st (z_ge st k)

let inv61 st ~k ~alpha =
  bp st Expr.(cand_kr_expr st ~k ~alpha ==> (var st.xs.(k) === nat alpha))

let inv62 st ~k = bp st Expr.(cand_kskr_expr st ~k ==> (var st.j >>> nat k))

let real_kr st ~k ~alpha =
  Kpt_core.Knowledge.knows_in st.sprog "Receiver"
    (bp st Expr.(var st.xs.(k) === nat alpha))

let real_kskr st ~k =
  let { a; _ } = st.sparams in
  let m = Space.manager st.sspace in
  let krx = Bdd.disj m (List.init a (fun alpha -> real_kr st ~k ~alpha)) in
  Kpt_core.Knowledge.knows_in st.sprog "Sender" krx

let stable55_holds st ~k = Kpt_logic.Props.stable st.sprog (cand_kskr st ~k)

let stable56_holds st ~k ~alpha =
  Kpt_logic.Props.stable st.sprog (cand_kr st ~k ~alpha)

(* ---- the abstract knowledge-based protocol (Figure 3) ------------------ *)

type abstract = {
  aprog : Program.t;
  aspace : Space.t;
  aparams : params;
  axs : Space.var array;
  aws : Space.var array;
  ay : Space.var;
  ai : Space.var;
  aj : Space.var;
  kr : Space.var array array;
  kskr : Space.var array;
  ksj : Space.var array;
}

let abstract_kbp ({ n; a } as params) =
  check_params params;
  let sp = Space.create () in
  let xs = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:(a - 1)) in
  let y = Space.nat_var sp "y" ~max:(a - 1) in
  let i = Space.nat_var sp "i" ~max:(n - 1) in
  let ws = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "w%d" k) ~max:(a - 1)) in
  let j = Space.nat_var sp "j" ~max:n in
  let kr =
    Array.init n (fun k ->
        Array.init a (fun alpha -> Space.bool_var sp (Printf.sprintf "kR_%d_%d" k alpha)))
  in
  let kskr = Array.init n (fun k -> Space.bool_var sp (Printf.sprintf "kSKR_%d" k)) in
  let ksj = Array.init (n + 1) (fun k -> Space.bool_var sp (Printf.sprintf "kSj_%d" k)) in
  let open Expr in
  let snd_adv =
    Stmt.make ~name:"snd_adv"
      ~guard:(select kskr (var i) &&& (var i <<< nat (n - 1)))
      [ (y, select xs (var i +! nat 1)); (i, var i +! nat 1) ]
  in
  let rcv_write alpha =
    let col = Array.init n (fun k -> kr.(k).(alpha)) in
    Stmt.make
      ~name:(Printf.sprintf "rcv_write%d" alpha)
      ~guard:(select col (var j) &&& (var j <<< nat n))
      (Stmt.array_write ws ~index:(var j) (nat alpha) @ [ (j, var j +! nat 1) ])
  in
  (* Oracle: the data message (i, y) gets through — the receiver learns
     the value currently on offer (Kbp-1's canonical channel). *)
  let or_data =
    let assigns =
      List.concat
        (List.init n (fun k ->
             List.init a (fun alpha ->
                 ( kr.(k).(alpha),
                   var kr.(k).(alpha) ||| ((var i === nat k) &&& (var y === nat alpha)) ))))
    in
    Stmt.make ~name:"or_data" assigns
  in
  (* Oracle: the ack message (j) gets through — the sender learns j ≥ k
     for every k ≤ j, and (via invariant 37) that the receiver knows
     every element below j (Kbp-2's canonical channel). *)
  let or_ack =
    let assigns =
      List.init n (fun k -> (kskr.(k), var kskr.(k) ||| (var j >>> nat k)))
      @ List.init (n + 1) (fun k -> (ksj.(k), var ksj.(k) ||| (var j >== nat k)))
    in
    Stmt.make ~name:"or_ack" assigns
  in
  let init =
    conj
      ([ var y === var xs.(0); var i === nat 0; var j === nat 0 ]
      @ List.init n (fun k -> var ws.(k) === nat 0)
      @ List.concat
          (List.init n (fun k -> List.init a (fun alpha -> not_ (var kr.(k).(alpha)))))
      @ List.init n (fun k -> not_ (var kskr.(k)))
      @ List.init (n + 1) (fun k -> not_ (var ksj.(k))))
  in
  let sender =
    Process.make "Sender"
      (Array.to_list xs @ [ y; i ] @ Array.to_list kskr @ Array.to_list ksj)
  in
  let receiver =
    Process.make "Receiver"
      (Array.to_list ws @ [ j ] @ List.concat_map Array.to_list (Array.to_list kr))
  in
  let prog =
    Program.make sp ~name:"seqtrans_kbp" ~init
      ~processes:[ sender; receiver ]
      ([ snd_adv ] @ List.init a rcv_write @ [ or_data; or_ack ])
  in
  {
    aprog = prog;
    aspace = sp;
    aparams = params;
    axs = xs;
    aws = ws;
    ay = y;
    ai = i;
    aj = j;
    kr;
    kskr;
    ksj;
  }

let abp st e = Expr.compile_bool st.aspace e

let a_spec_safety st = safety st.aspace ~j:st.aj ~ws:st.aws ~xs:st.axs
let a_spec_liveness_holds st ~k = liveness_holds st.aprog ~j:st.aj ~k

let a_kr st ~k ~alpha = abp st (Expr.var st.kr.(k).(alpha))

let a_krx st ~k =
  let { a; _ } = st.aparams in
  abp st (Expr.disj (List.init a (fun alpha -> Expr.var st.kr.(k).(alpha))))

let a_kskr st ~k = abp st (Expr.var st.kskr.(k))
let a_ksj st ~k = abp st (Expr.var st.ksj.(k))
let a_j_eq st k = abp st Expr.(var st.aj === nat k)
let a_j_gt st k = abp st Expr.(var st.aj >>> nat k)
let a_i_eq st k = abp st Expr.(var st.ai === nat k)
let a_i_gt st k = abp st Expr.(var st.ai >>> nat k)
let a_i_ge st k = abp st Expr.(var st.ai >== nat k)
let a_y_eq st alpha = abp st Expr.(var st.ay === nat alpha)

open Kpt_predicate
open Kpt_unity

type t = {
  prog : Program.t;
  space : Space.t;
  params : Seqtrans.params;
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

let make ?(lossy = true) ?fault ({ Seqtrans.n; a } as params) =
  let fault = Channel.resolve_fault ~lossy fault in
  Option.iter (fun e -> invalid_arg ("Stenning.make: " ^ e)) (Seqtrans.params_error params);
  let sp = Space.create () in
  let xs = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:(a - 1)) in
  let y = Space.nat_var sp "y" ~max:(a - 1) in
  let i = Space.nat_var sp "i" ~max:(n - 1) in
  let ws = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "w%d" k) ~max:(a - 1)) in
  let j = Space.nat_var sp "j" ~max:n in
  let dcodec = Channel.pair_codec ~n ~a in
  (* acks carry the highest delivered index, 0..n-1 *)
  let acodec = Channel.nat_codec ~max:(n - 1) in
  let data = Channel.declare sp ~name:"data" dcodec in
  let ack = Channel.declare sp ~name:"ack" acodec in
  let z = Channel.register sp ~name:"z" acodec in
  let zp = Channel.register sp ~name:"zp" dcodec in
  let open Expr in
  (* the current element has been delivered when the ack names it *)
  let acked = var z === var i &&& (var z <== nat (n - 1)) in
  let snd_tx =
    Stmt.make ~name:"snd_tx" ~guard:(not_ acked)
      [ Channel.transmit data [ var i; var y ]; Channel.receive ack z ]
  in
  let snd_adv =
    Stmt.make ~name:"snd_adv"
      ~guard:(acked &&& (var i <<< nat (n - 1)))
      [ (y, select xs (var i +! nat 1)); (i, var i +! nat 1); Channel.receive ack z ]
  in
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
    (* acknowledge the highest delivered index, once something was delivered *)
    Stmt.make ~name:"rcv_ack"
      ~guard:((var j >>> nat 0) &&& not_ (disj (List.init a zp_is_j)))
      [ Channel.transmit ack [ var j -! nat 1 ]; Channel.receive data zp ]
  in
  let rcv_idle =
    (* before the first delivery there is nothing to acknowledge, but the
       receiver still polls the channel *)
    Stmt.make ~name:"rcv_idle"
      ~guard:((var j === nat 0) &&& not_ (disj (List.init a zp_is_j)))
      [ Channel.receive data zp ]
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
  let receiver = Process.make "Receiver" (Array.to_list ws @ [ j; zp ]) in
  let prog =
    Program.make sp
      ~name:("stenning" ^ Channel.fault_suffix fault)
      ~init
      ~processes:[ sender; receiver ]
      ([ snd_tx; snd_adv ] @ List.init a rcv_write @ [ rcv_ack; rcv_idle ] @ env)
  in
  { prog; space = sp; params; xs; ws; y; i; j; z; zp; data; ack }

let safety t = Seqtrans.safety t.space ~j:t.j ~ws:t.ws ~xs:t.xs
let liveness_holds t ~k = Seqtrans.liveness_holds t.prog ~j:t.j ~k

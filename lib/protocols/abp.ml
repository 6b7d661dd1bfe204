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
  sb : Space.var;
  rb : Space.var;
  z : Space.var;
  zp : Space.var;
  data : Channel.t;
  ack : Channel.t;
}

let make ?(lossy = true) ?fault ({ Seqtrans.n; a } as params) =
  let fault = Channel.resolve_fault ~lossy fault in
  Option.iter (fun e -> invalid_arg ("Abp.make: " ^ e)) (Seqtrans.params_error params);
  let sp = Space.create () in
  let xs = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:(a - 1)) in
  let y = Space.nat_var sp "y" ~max:(a - 1) in
  let i = Space.nat_var sp "i" ~max:(n - 1) in
  let sb = Space.nat_var sp "sb" ~max:1 in
  let ws = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "w%d" k) ~max:(a - 1)) in
  let j = Space.nat_var sp "j" ~max:n in
  let rb = Space.nat_var sp "rb" ~max:1 in
  (* data messages: (bit, value); acks: a bit *)
  let dcodec = Channel.pair_codec ~n:2 ~a in
  let acodec = Channel.nat_codec ~max:1 in
  let data = Channel.declare sp ~name:"data" dcodec in
  let ack = Channel.declare sp ~name:"ack" acodec in
  let z = Channel.register sp ~name:"z" acodec in
  let zp = Channel.register sp ~name:"zp" dcodec in
  let open Expr in
  let acked = var z === var sb in
  let snd_tx =
    Stmt.make ~name:"snd_tx" ~guard:(not_ acked)
      [ Channel.transmit data [ var sb; var y ]; Channel.receive ack z ]
  in
  let snd_adv =
    Stmt.make ~name:"snd_adv"
      ~guard:(acked &&& (var i <<< nat (n - 1)))
      [
        (y, select xs (var i +! nat 1));
        (i, var i +! nat 1);
        (sb, nat 1 -! var sb);
        Channel.receive ack z;
      ]
  in
  (* zp = (rb, α): a fresh in-order message. *)
  let zp_is alpha =
    (var zp === Channel.mul_const a (var rb) +! nat alpha) &&& (var j <<< nat n)
  in
  let rcv_dlv alpha =
    Stmt.make
      ~name:(Printf.sprintf "rcv_dlv%d" alpha)
      ~guard:(zp_is alpha)
      (Stmt.array_write ws ~index:(var j) (nat alpha)
      @ [ (j, var j +! nat 1); (rb, nat 1 -! var rb); Channel.receive data zp ])
  in
  let rcv_ack =
    (* re-acknowledge the last accepted stamp: ¬rb *)
    Stmt.make ~name:"rcv_ack"
      ~guard:(not_ (disj (List.init a zp_is)))
      [ Channel.transmit ack [ nat 1 -! var rb ]; Channel.receive data zp ]
  in
  let env, fault_init = Channel.network sp fault [ ("data", data); ("ack", ack) ] in
  let init =
    conj
      ([
         var y === var xs.(0);
         var i === nat 0;
         var j === nat 0;
         var sb === nat 0;
         var rb === nat 0;
         var z === nat acodec.Channel.bot;
         var zp === nat dcodec.Channel.bot;
       ]
      @ List.init n (fun k -> var ws.(k) === nat 0)
      @ [ Channel.init_expr data; Channel.init_expr ack ]
      @ fault_init)
  in
  let sender = Process.make "Sender" (Array.to_list xs @ [ y; i; sb; z ]) in
  let receiver = Process.make "Receiver" (Array.to_list ws @ [ j; rb; zp ]) in
  let prog =
    Program.make sp
      ~name:("abp" ^ Channel.fault_suffix fault)
      ~init
      ~processes:[ sender; receiver ]
      ([ snd_tx; snd_adv ] @ List.init a rcv_dlv @ [ rcv_ack ] @ env)
  in
  { prog; space = sp; params; xs; ws; y; i; j; sb; rb; z; zp; data; ack }

let safety t = Seqtrans.safety t.space ~j:t.j ~ws:t.ws ~xs:t.xs
let liveness_holds t ~k = Seqtrans.liveness_holds t.prog ~j:t.j ~k

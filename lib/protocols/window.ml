open Kpt_predicate
open Kpt_unity

type t = {
  prog : Program.t;
  space : Space.t;
  params : Seqtrans.params;
  window : int;
  xs : Space.var array;
  ws : Space.var array;
  i : Space.var;
  j : Space.var;
  z : Space.var;
  slots : Space.var array;
  avails : Space.var array;
  ack : Channel.t;
}

let make ?(lossy = true) ?fault ~window ({ Seqtrans.n; a } as params) =
  let fault = Channel.resolve_fault ~lossy fault in
  if window < 1 then invalid_arg "Window.make: window must be ≥ 1";
  Option.iter (fun e -> invalid_arg ("Window.make: " ^ e)) (Seqtrans.params_error params);
  let sp = Space.create () in
  let xs = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:(a - 1)) in
  let i = Space.nat_var sp "i" ~max:n in
  let ws = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "w%d" k) ~max:(a - 1)) in
  let j = Space.nat_var sp "j" ~max:n in
  (* per-element network: value α < a, or a = ⊥ *)
  let slots = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "net%d" k) ~max:a) in
  let avails = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "avl%d" k) ~max:a) in
  let acodec = Channel.nat_codec ~max:n in
  let ack = Channel.declare sp ~name:"ack" acodec in
  let z = Channel.register sp ~name:"z" acodec in
  let open Expr in
  let snd_tx o =
    Stmt.make
      ~name:(Printf.sprintf "snd_tx%d" o)
      ~guard:(var i +! nat o <<< nat n)
      (Stmt.array_write slots
         ~index:(var i +! nat o)
         (select xs (var i +! nat o))
      @ [ Channel.receive ack z ])
  in
  let snd_adv =
    Stmt.make ~name:"snd_adv"
      ~guard:((var z <== nat n) &&& (var z >>> var i))
      [ (i, var z); Channel.receive ack z ]
  in
  let rcv_write alpha =
    Stmt.make
      ~name:(Printf.sprintf "rcv_write%d" alpha)
      ~guard:((select avails (var j) === nat alpha) &&& (var j <<< nat n))
      (Stmt.array_write ws ~index:(var j) (nat alpha) @ [ (j, var j +! nat 1) ])
  in
  let rcv_ack = Stmt.make ~name:"rcv_ack" [ Channel.transmit ack [ var j ] ] in
  (* each network cell is a channel direction whose ⊥ is [a] *)
  let cell k =
    ( string_of_int k,
      { Channel.codec = Channel.nat_codec ~max:(a - 1); slot = slots.(k); avail = avails.(k) } )
  in
  let env, fault_init = Channel.network sp fault (List.init n cell @ [ ("ack", ack) ]) in
  let init =
    conj
      ([ var i === nat 0; var j === nat 0; var z === nat acodec.Channel.bot ]
      @ List.init n (fun k -> var ws.(k) === nat 0)
      @ List.init n (fun k -> var slots.(k) === nat a)
      @ List.init n (fun k -> var avails.(k) === nat a)
      @ [ Channel.init_expr ack ]
      @ fault_init)
  in
  let sender = Process.make "Sender" (Array.to_list xs @ [ i; z ]) in
  let receiver = Process.make "Receiver" (Array.to_list ws @ [ j ]) in
  let prog =
    Program.make sp
      ~name:(Printf.sprintf "window%d%s" window (Channel.fault_suffix fault))
      ~init
      ~processes:[ sender; receiver ]
      (List.init window snd_tx @ [ snd_adv ] @ List.init a rcv_write @ [ rcv_ack ] @ env)
  in
  { prog; space = sp; params; window; xs; ws; i; j; z; slots; avails; ack }

let safety t = Seqtrans.safety t.space ~j:t.j ~ws:t.ws ~xs:t.xs
let liveness_holds t ~k = Seqtrans.liveness_holds t.prog ~j:t.j ~k

let in_flight t st =
  let { Seqtrans.n; a } = t.params in
  let count = ref 0 in
  for k = 0 to n - 1 do
    if k >= st.(Space.idx t.i) && st.(Space.idx t.slots.(k)) <> a then incr count
  done;
  !count

let simulate_steps ?(seed = 1) t =
  let sp = t.space in
  let { Seqtrans.n; a } = t.params in
  let rng = Stdlib.Random.State.make [| seed |] in
  let nvars = List.length (Space.vars sp) in
  let state = ref (Array.make nvars 0) in
  Array.iter (fun x -> !state.(Space.idx x) <- Stdlib.Random.State.int rng a) t.xs;
  !state.(Space.idx t.z) <- t.ack.Channel.codec.Channel.bot;
  Array.iter (fun s -> !state.(Space.idx s) <- a) t.slots;
  Array.iter (fun s -> !state.(Space.idx s) <- a) t.avails;
  !state.(Space.idx t.ack.Channel.slot) <- t.ack.Channel.codec.Channel.bot;
  !state.(Space.idx t.ack.Channel.avail) <- t.ack.Channel.codec.Channel.bot;
  let stmts = Array.of_list (Program.statements t.prog) in
  let steps = ref 0 in
  while !state.(Space.idx t.j) < n && !steps < 1_000_000 do
    let s = stmts.(Stdlib.Random.State.int rng (Array.length stmts)) in
    state := Stmt.exec sp s !state;
    incr steps
  done;
  !steps

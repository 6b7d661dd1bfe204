open Kpt_predicate
open Kpt_unity

type t = {
  prog : Program.t;
  space : Space.t;
  params : Seqtrans.params;
  bits_per_element : int;
  xs : Space.var array;
  ws : Space.var array;
  i : Space.var;
  j : Space.var;
  bit : Space.var;
  wire : Space.var;
  turn : Space.var;
  acc : Space.var;
}

let log2_exact a =
  let rec go b v = if v = a then Some b else if v > a then None else go (b + 1) (v * 2) in
  go 0 1

let params_error ({ Seqtrans.a; _ } as params) =
  match Seqtrans.params_error params with
  | Some _ as e -> e
  | None when log2_exact a = None -> Some "alphabet size must be a power of two ≥ 2"
  | None -> None

let make ({ Seqtrans.n; a } as params) =
  Option.iter (fun e -> invalid_arg ("Auy.make: " ^ e)) (params_error params);
  let bpe = Option.get (log2_exact a) in
  let sp = Space.create () in
  let xs = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "x%d" k) ~max:(a - 1)) in
  let i = Space.nat_var sp "i" ~max:(n - 1) in
  let sbit = Space.nat_var sp "sbit" ~max:(bpe - 1) in
  let ws = Array.init n (fun k -> Space.nat_var sp (Printf.sprintf "w%d" k) ~max:(a - 1)) in
  let j = Space.nat_var sp "j" ~max:n in
  let bit = Space.nat_var sp "bit" ~max:(bpe - 1) in
  let acc = Space.nat_var sp "acc" ~max:(a - 1) in
  let wire = Space.nat_var sp "wire" ~max:1 in
  let turn = Space.nat_var sp "turn" ~max:1 in
  let open Expr in
  (* bit p of the current element: a disjunction over alphabet values *)
  let bit_of_current p =
    let cur = select xs (var i) in
    let values_with_bit = List.filter (fun v -> (v lsr p) land 1 = 1) (List.init a Fun.id) in
    Ite (disj (List.map (fun v -> cur === nat v) values_with_bit), nat 1, nat 0)
  in
  let snd_stmt p =
    let advance =
      if p = bpe - 1 then
        [ (sbit, nat 0); (i, Ite (var i <<< nat (n - 1), var i +! nat 1, var i)) ]
      else [ (sbit, nat (p + 1)) ]
    in
    Stmt.make
      ~name:(Printf.sprintf "snd_bit%d" p)
      ~guard:((var turn === nat 0) &&& (var sbit === nat p))
      ([ (wire, bit_of_current p); (turn, nat 1) ] @ advance)
  in
  let contribution p = Ite (var wire === nat 1, nat (1 lsl p), nat 0) in
  let rcv_stmt p =
    if p = bpe - 1 then
      Stmt.make
        ~name:(Printf.sprintf "rcv_bit%d" p)
        ~guard:
          (conj
             [
               var turn === nat 1;
               var bit === nat p;
               var acc <<< nat (1 lsl p);
               var j <<< nat n;
             ])
        (Stmt.array_write ws ~index:(var j) (var acc +! contribution p)
        @ [ (j, var j +! nat 1); (acc, nat 0); (bit, nat 0); (turn, nat 0) ])
    else
      Stmt.make
        ~name:(Printf.sprintf "rcv_bit%d" p)
        ~guard:
          (conj
             [ var turn === nat 1; var bit === nat p; var acc <<< nat (1 lsl p) ])
        [ (acc, var acc +! contribution p); (bit, nat (p + 1)); (turn, nat 0) ]
  in
  let init =
    conj
      ([
         var i === nat 0;
         var sbit === nat 0;
         var j === nat 0;
         var bit === nat 0;
         var acc === nat 0;
         var wire === nat 0;
         var turn === nat 0;
       ]
      @ List.init n (fun k -> var ws.(k) === nat 0))
  in
  let sender = Process.make "Sender" (Array.to_list xs @ [ i; sbit ]) in
  let receiver = Process.make "Receiver" (Array.to_list ws @ [ j; bit; acc ]) in
  let prog =
    Program.make sp ~name:"auy" ~init
      ~processes:[ sender; receiver ]
      (List.init bpe snd_stmt @ List.init bpe rcv_stmt)
  in
  { prog; space = sp; params; bits_per_element = bpe; xs; ws; i; j; bit; wire; turn; acc }

let safety t = Seqtrans.safety t.space ~j:t.j ~ws:t.ws ~xs:t.xs
let liveness_holds t ~k = Seqtrans.liveness_holds t.prog ~j:t.j ~k

let messages_per_element t = t.bits_per_element

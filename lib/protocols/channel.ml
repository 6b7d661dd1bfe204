open Kpt_predicate
open Kpt_unity

type codec = {
  card : int;
  bot : int;
  weights : int list;
  enc : int list -> int;
  dec : int -> int list;
}

let nat_codec ~max =
  {
    card = max + 2;
    bot = max + 1;
    weights = [ 1 ];
    enc = (function [ k ] -> k | _ -> invalid_arg "nat_codec.enc");
    dec = (fun v -> [ v ]);
  }

let pair_codec ~n ~a =
  {
    card = (n * a) + 1;
    bot = n * a;
    weights = [ a; 1 ];
    enc =
      (function
      | [ k; alpha ] ->
          if k < 0 || k >= n || alpha < 0 || alpha >= a then
            invalid_arg "pair_codec.enc: out of range"
          else (k * a) + alpha
      | _ -> invalid_arg "pair_codec.enc");
    dec = (fun v -> [ v / a; v mod a ]);
  }

type t = { codec : codec; slot : Space.var; avail : Space.var }

let declare sp ~name codec =
  let slot = Space.nat_var sp (name ^ "_slot") ~max:(codec.card - 1) in
  let avail = Space.nat_var sp (name ^ "_avail") ~max:(codec.card - 1) in
  { codec; slot; avail }

let register sp ~name codec = Space.nat_var sp name ~max:(codec.card - 1)

(* c · e by repeated addition (no multiplication in the expression
   language; channel component weights are small). *)
let mul_const c e =
  if c = 0 then Expr.nat 0
  else
    let rec go k acc = if k = 1 then acc else go (k - 1) Expr.(acc +! e) in
    go c e

let transmit ch components =
  let ws = ch.codec.weights in
  if List.length ws <> List.length components then
    invalid_arg "Channel.transmit: arity mismatch";
  let terms = List.map2 mul_const ws components in
  let expr = match terms with [] -> Expr.nat 0 | t :: ts -> List.fold_left Expr.( +! ) t ts in
  (ch.slot, expr)

let receive ch reg = (reg, Expr.var ch.avail)
let deliver_stmt ch ~name = Stmt.make ~name [ (ch.avail, Expr.var ch.slot) ]
let drop_stmt ch ~name = Stmt.make ~name [ (ch.avail, Expr.nat ch.codec.bot) ]

let init_expr ch =
  Expr.((var ch.slot === nat ch.codec.bot) &&& (var ch.avail === nat ch.codec.bot))

let env sp ?up ch ~name model =
  Kpt_fault.Inject.env sp ~slot:ch.slot ~avail:ch.avail ~bot:ch.codec.bot ?up ~name model

(* One crash flag for the whole network: every direction stops together.
   It is declared after the builder's own variables, and its crash
   statement comes after every direction's statements. *)
let network sp model directions =
  let up = if model.Kpt_fault.Model.crash then Some (Space.bool_var sp "net_up") else None in
  let envs = List.map (fun (name, ch) -> env sp ?up ch ~name model) directions in
  let crash =
    match up with Some u -> [ Kpt_fault.Inject.crash_stmt ~name:"net" u ] | None -> []
  in
  ( List.concat_map (fun e -> e.Kpt_fault.Inject.statements) envs @ crash,
    match up with Some u -> [ Expr.var u ] | None -> [] )

(* The shared [?lossy] / [?fault] resolution of the protocol builders:
   an explicit fault model wins; otherwise [~lossy] selects between the
   two historical channels (lossy = the paper's §6.3 channel,
   non-lossy = reliable-but-duplicating). *)
let resolve_fault ~lossy fault =
  match fault with
  | Some f -> f
  | None -> if lossy then Kpt_fault.Model.lossy else Kpt_fault.Model.duplicating

(* Program-name suffix: the two historical models keep their historical
   spellings so every pre-fault call site sees identical program names. *)
let fault_suffix model =
  if Kpt_fault.Model.equal model Kpt_fault.Model.lossy then "_lossy"
  else if Kpt_fault.Model.equal model Kpt_fault.Model.duplicating then ""
  else "_" ^ Kpt_fault.Model.to_string model

open Kpt_predicate
open Kpt_unity

type instance = { prog : Program.t; j : Space.var; ws : Space.var array; xs : Space.var array }

type build =
  | On_channel of (Kpt_fault.Model.t -> Seqtrans.params -> instance)
  | No_channel of (Seqtrans.params -> instance)

type t = {
  name : string;
  label : string;
  build : build;
  params_error : Seqtrans.params -> string option;
}

let all =
  let standard fault p =
    let t = Seqtrans.standard ~fault p in
    { prog = t.sprog; j = t.j; ws = t.ws; xs = t.xs }
  and kbp p =
    let t = Seqtrans.abstract_kbp p in
    { prog = t.aprog; j = t.aj; ws = t.aws; xs = t.axs }
  and abp fault p =
    let t = Abp.make ~fault p in
    { prog = t.prog; j = t.j; ws = t.ws; xs = t.xs }
  and stenning fault p =
    let t = Stenning.make ~fault p in
    { prog = t.prog; j = t.j; ws = t.ws; xs = t.xs }
  and auy p =
    let t = Auy.make p in
    { prog = t.prog; j = t.j; ws = t.ws; xs = t.xs }
  and window fault p =
    let t = Window.make ~fault ~window:2 p in
    { prog = t.prog; j = t.j; ws = t.ws; xs = t.xs }
  in
  let entry name label build = { name; label; build; params_error = Seqtrans.params_error } in
  [
    entry "standard" "standard" (On_channel standard);
    entry "kbp" "knowledge-based" (No_channel kbp);
    entry "abp" "alternating-bit" (On_channel abp);
    entry "stenning" "stenning" (On_channel stenning);
    { (entry "auy" "auy" (No_channel auy)) with params_error = Auy.params_error };
    entry "window" "sliding-window(2)" (On_channel window);
  ]

let find name = List.find_opt (fun b -> b.name = name) all
let safety i = Seqtrans.safety (Program.space i.prog) ~j:i.j ~ws:i.ws ~xs:i.xs
let liveness_holds i ~k = Seqtrans.liveness_holds i.prog ~j:i.j ~k

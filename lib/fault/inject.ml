open Kpt_predicate
open Kpt_unity

(* Synthesise the environment statements a fault model grants over one
   channel direction, given the channel's slot/avail variables and its
   ⊥ encoding.  The statements follow the §6.3 shape — everything the
   environment does is an assignment to [avail] (plus, for a consuming
   deliver, the slot, and for crash, the up flag):

     deliver   avail := slot                 (repeatable ⇒ duplication)
     deliver₁  avail := slot ∥ slot := ⊥  if slot ≠ ⊥   (exactly-once)
     drop      avail := ⊥                   (loss / detectable corruption)
     corrupt   avail := 0    if slot ≠ ⊥    (valid-looking wrong value)
     crash     up := false                  (deliver guarded by up)

   Statement names are [env_dlv_NAME] / [env_drop_NAME] — byte-identical
   to the historical hard-wired pair — plus [env_corr_NAME] and
   [env_crash_NAME]. *)

(* For builders sharing one crash flag across several channel
   directions: the single statement taking the network down. *)
let crash_stmt ~name up = Stmt.make ~name:("env_crash_" ^ name) [ (up, Expr.fls) ]

type channel_env = {
  statements : Stmt.t list;
  init : Expr.t list; (* extra init conjuncts (the crash flag starts up) *)
  up : Space.var option; (* the crash flag, when this call declared one *)
}

let env sp ~slot ~avail ~bot ?up ~name (m : Model.t) =
  let open Expr in
  let owns_up = m.Model.crash && up = None in
  let up_var =
    if m.Model.crash then
      Some (match up with Some v -> v | None -> Space.bool_var sp (name ^ "_up"))
    else None
  in
  let guard ?extra () =
    (* deliver/corrupt run only while the channel is up *)
    match (up_var, extra) with
    | None, e -> e
    | Some u, None -> Some (var u)
    | Some u, Some e -> Some (var u &&& e)
  in
  let in_flight = not_ (var slot === nat bot) in
  let deliver =
    if m.Model.duplication then
      Stmt.make ~name:("env_dlv_" ^ name) ?guard:(guard ()) [ (avail, var slot) ]
    else
      (* consuming deliver: guarded on a message being in flight, so an
         empty slot cannot masquerade as a drop *)
      Stmt.make ~name:("env_dlv_" ^ name)
        ?guard:(guard ~extra:in_flight ())
        [ (avail, var slot); (slot, nat bot) ]
  in
  let drop =
    if Model.drops m then
      [ Stmt.make ~name:("env_drop_" ^ name) [ (avail, nat bot) ] ]
    else []
  in
  let corrupt =
    if m.Model.corrupt_value then
      [
        Stmt.make ~name:("env_corr_" ^ name)
          ?guard:(guard ~extra:in_flight ())
          [ (avail, nat 0) ];
      ]
    else []
  in
  let crash =
    match up_var with
    | Some u when owns_up -> [ Stmt.make ~name:("env_crash_" ^ name) [ (u, fls) ] ]
    | _ -> []
  in
  {
    statements = (deliver :: drop) @ corrupt @ crash;
    init = (if owns_up then [ var (Option.get up_var) ] else []);
    up = (if owns_up then up_var else None);
  }

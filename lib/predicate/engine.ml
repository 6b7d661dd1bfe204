(* An engine context makes ownership of the symbolic core's mutable
   state explicit.  The per-structure tables (the BDD unique table and
   op-cache, the Space memo tables) already live inside the manager each
   Space owns; what was genuinely process-global was the observability
   state — counters, spans, the event sink.  An [Engine.t] bundles an
   identity with the Kpt_obs metric context those tables report into, so
   a worker domain can run a whole solve/verify/lint pipeline under its
   own engine and the main domain can fold the numbers back in after the
   join. *)

type reorder_mode = Reorder_off | Reorder_auto

type t = {
  eid : int;
  obs : Kpt_obs.Ctx.t;
  mutable budget : Budget.t option;
  mutable reorder : reorder_mode option; (* [None] = follow the process default *)
}

(* Engine identities are process-wide (an engine may be created on one
   domain and used on another), so the id counter is the one piece of
   shared state here — a single Atomic.  The default reorder mode is the
   other: it is configuration (set once by the CLI before any solving),
   and worker domains must observe the mode the main domain chose. *)
let next_id = Atomic.make 0
let default_reorder = Atomic.make Reorder_off

let make obs = { eid = Atomic.fetch_and_add next_id 1; obs; budget = None; reorder = None }
let default = make Kpt_obs.Ctx.root
let create () = make (Kpt_obs.Ctx.create ())
let id t = t.eid
let obs t = t.obs
let is_default t = t == default

(* Which engine is "current" is a per-domain notion, tracked alongside
   (not inside) the Kpt_obs context: the obs layer must not know about
   engines, but [Space.create] wants to attribute new spaces to the
   engine of the enclosing [use]. *)
let dls_current = Domain.DLS.new_key (fun () -> default)

let current () = Domain.DLS.get dls_current

let use t f =
  let prev = Domain.DLS.get dls_current in
  Domain.DLS.set dls_current t;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set dls_current prev)
    (fun () -> Kpt_obs.Ctx.use t.obs f)
let merge_metrics ~into src = Kpt_obs.Ctx.merge ~into:into.obs src.obs
let counters t = Kpt_obs.Ctx.counters t.obs
let spans t = Kpt_obs.Ctx.spans t.obs

let set_default_reorder_mode mode = Atomic.set default_reorder mode
let default_reorder_mode () = Atomic.get default_reorder

let reorder_mode t =
  match t.reorder with Some m -> m | None -> Atomic.get default_reorder

let set_reorder_mode t mode = t.reorder <- mode

(* Budgets ride on the engine rather than on each Space: a solve touches
   several spaces (program, KBP bases, knowledge cylinders) but is one
   unit of work, and the pool already hands each task a private engine,
   so per-task deadlines fall out for free. *)
let set_budget t b = t.budget <- b
let budget t = t.budget

let with_budget ?engine limits f =
  let t = match engine with Some e -> e | None -> Domain.DLS.get dls_current in
  let prev = t.budget in
  t.budget <-
    (if Budget.is_unlimited limits then None else Some (Budget.arm limits));
  Fun.protect ~finally:(fun () -> t.budget <- prev) f

(* The checkpoints the fixpoint loops and the node allocator call.  Both
   must stay near-free when no budget is armed: one DLS read and one
   [None] match. *)
let checkpoint ?fuel () =
  match (Domain.DLS.get dls_current).budget with
  | None -> ()
  | Some b -> Budget.check ?fuel b

let check_nodes nodes =
  match (Domain.DLS.get dls_current).budget with
  | None -> ()
  | Some b -> Budget.check_nodes b nodes

open Kpt_predicate

type guard = Gexpr of Expr.t | Gpred of Bdd.t

(* Early-quantification observability: [images] counts statement images,
   [steps] the update conjuncts that images and pre-images were
   decomposed into. *)
let c_eq_images = Kpt_obs.counter "space.early_quant.images"
let c_eq_steps = Kpt_obs.counter "space.early_quant.steps"

(* The frame-free partition of the fire branch: one update conjunct per
   assigned variable, in declaration order, each with the cube to apply
   right after it.  Unassigned variables never enter the relation — an
   image or a pre-image leaves their current bits alone — so a statement
   pays only for the variables it writes.  A schedule is a chain of
   relational products, and its last cube also moves the assigned next
   bits onto their current bits, so neither direction rebuilds its
   result afterwards. *)
type schedule = (Bdd.t * Bdd.cube) list

let run m sched p =
  List.fold_left
    (fun acc (c, cube) ->
      Kpt_obs.incr c_eq_steps;
      Bdd.and_exists m cube acc c)
    p sched

(* Compiled-relation caches.  Each entry is keyed on the space it was
   compiled for (physical identity) so a statement reused against another
   space recompiles transparently.

   The [shared] part holds guard-independent data: the compiled
   right-hand sides, the image schedule, the pre-image schedule with its
   [nofit] set — each schedule built on its first use, so a run that
   takes no pre-image never builds one — and the range-overflow set of
   the assignments.  [with_guard_pred] keeps it physically shared, so
   re-instantiating a knowledge-based protocol at a new candidate
   invariant — same assignments, new guard — reuses the compiled updates
   across every Ĝ-iteration. *)
type shared_cache = {
  mutable s_updates : (Space.t * (Space.var * Bitvec.t) list) option;
  mutable s_image : (Space.t * schedule) option;
  mutable s_pre : (Space.t * (schedule * Bdd.t)) option;
  mutable s_over : (Space.t * Bdd.t) option;
}

type cache = {
  shared : shared_cache;
  mutable c_guard : (Space.t * Bdd.t) option;
}

type t = {
  sname : string;
  guard : guard;
  assigns : (Space.var * Expr.t) list;
  cache : cache;
}

exception Ill_formed of string

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let target_ty v = if Space.card v = 2 && Space.value_name v 0 = "false" then Expr.Tbool else Expr.Tnat

let fresh_cache () =
  { shared = { s_updates = None; s_image = None; s_pre = None; s_over = None }; c_guard = None }

let make ~name ?(guard = Expr.tru) assigns =
  (match Expr.typeof guard with
  | Expr.Tbool -> ()
  | Expr.Tnat -> ill_formed "statement %s: guard is not boolean" name);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (v, rhs) ->
      if Hashtbl.mem seen (Space.idx v) then
        ill_formed "statement %s: duplicate target %s" name (Space.name v);
      Hashtbl.add seen (Space.idx v) ();
      if Expr.typeof rhs <> target_ty v then
        ill_formed "statement %s: sort mismatch assigning to %s" name (Space.name v))
    assigns;
  { sname = name; guard = Gexpr guard; assigns; cache = fresh_cache () }

(* Keep the guard-independent shared cache; drop the guard-dependent
   entries of the new statement. *)
let with_guard_pred s p =
  { s with guard = Gpred p; cache = { shared = s.cache.shared; c_guard = None } }

let array_write arr ~index rhs =
  Array.to_list
    (Array.mapi
       (fun k elem -> (elem, Expr.Ite (Expr.Eq (index, Expr.Cint k), rhs, Expr.Var elem)))
       arr)

let name s = s.sname

let cached slot space compute store =
  match slot with
  | Some (sp', r) when sp' == space -> r
  | _ ->
      let r = compute () in
      store (Some (space, r));
      r

let guard_pred sp s =
  match s.guard with
  | Gpred p -> p
  | Gexpr e ->
      cached s.cache.c_guard sp
        (fun () -> Expr.compile_bool sp e)
        (fun v -> s.cache.c_guard <- v)

let assigns s = s.assigns
let assigned_vars s = List.map fst s.assigns

(* The assigned variables in declaration order, each with its right-hand
   side as a symbolic bit-vector (booleans become 1-bit), compiled once
   for the overflow set and both schedules. *)
let updates sp s =
  let rhs_vec rhs =
    match Expr.compile sp rhs with
    | Expr.Sint vec -> vec
    | Expr.Sbool b -> Bitvec.of_bits [| b |]
  in
  cached s.cache.shared.s_updates sp
    (fun () ->
      List.filter_map
        (fun v ->
          List.find_opt (fun (u, _) -> Space.idx u = Space.idx v) s.assigns
          |> Option.map (fun (v, rhs) -> (v, rhs_vec rhs)))
        (Space.vars sp))
    (fun v -> s.cache.shared.s_updates <- v)

(* Guard-independent overflow set: states where some right-hand side falls
   outside its target's range. *)
let over_pred sp s =
  cached s.cache.shared.s_over sp
    (fun () ->
      let m = Space.manager sp in
      Bdd.disj m
        (List.map
           (fun (v, vec) ->
             let bound =
               Bitvec.const m
                 ~width:(max (Bitvec.width vec) (Space.width v))
                 (Space.card v - 1)
             in
             Bdd.not_ m (Bitvec.le m vec bound))
           (updates sp s)))
    (fun v -> s.cache.shared.s_over <- v)

let totality_violation sp s =
  let m = Space.manager sp in
  Bdd.conj m [ Space.domain sp; guard_pred sp s; over_pred sp s ]

(* The products over [parts], each a conjunct with the bits to quantify
   right after it; the last cube also moves the assigned next bits onto
   their current bits. *)
let chain m ups parts =
  let n = List.length parts in
  let next_a = List.concat_map (fun (v, _) -> Space.next_bits v) ups in
  List.mapi
    (fun i (c, quant) -> (c, Bdd.cube m ~move:(if i = n - 1 then next_a else []) quant))
    parts

(* Image: the conjuncts [v' = rhs_v].  Each assigned current bit is
   quantified right after the last conjunct that reads it (after the
   first if none does), so the intermediate products never carry more of
   the old state than the remaining conjuncts need. *)
let build_image sp s =
  let m = Space.manager sp in
  let ups = updates sp s in
  let conjuncts = List.map (fun (v, rhs) -> Bitvec.eq m (Space.next_vec sp v) rhs) ups in
  let cur_bits = List.concat_map (fun (v, _) -> Space.current_bits v) ups in
  let last = Hashtbl.create 16 in
  List.iteri (fun i c -> List.iter (fun b -> Hashtbl.replace last b i) (Bdd.support m c)) conjuncts;
  let quant i =
    List.filter (fun b -> Option.value (Hashtbl.find_opt last b) ~default:0 = i) cur_bits
  in
  chain m ups (List.mapi (fun i c -> (c, quant i)) conjuncts)

(* Pre-image: the reversed conjuncts [v = rhs_v[A := A']] over the
   assigned variables [A], each followed by the quantification of its own
   target's current bits, which no later conjunct reads.  [Bitvec.eq]
   zero-extends, so a right-hand side has a solution in its target's bits
   iff its bits past the target's width are all clear; [nofit] is the
   set where some right-hand side has none.  A right-hand side reads
   current bits only, so its move onto [A'] never meets a partner. *)
let build_pre sp s =
  let m = Space.manager sp in
  let ups = updates sp s in
  let to_next = Bdd.cube m ~move:(List.concat_map (fun (v, _) -> Space.current_bits v) ups) [] in
  let reversed (v, rhs) =
    (Bitvec.eq m (Space.cur_vec sp v) (Array.map (Bdd.exists m to_next) rhs), Space.current_bits v)
  in
  let sched = chain m ups (List.map reversed ups) in
  let nofit =
    Bdd.disj m
      (List.concat_map
         (fun (v, rhs) -> List.filteri (fun k _ -> k >= Space.width v) (Array.to_list rhs))
         ups)
  in
  (sched, nofit)

let image_schedule sp s =
  cached s.cache.shared.s_image sp
    (fun () -> build_image sp s)
    (fun v -> s.cache.shared.s_image <- v)

let pre_schedule sp s =
  cached s.cache.shared.s_pre sp
    (fun () -> build_pre sp s)
    (fun v -> s.cache.shared.s_pre <- v)

(* Image of [p ∧ g] under the fire branch: conjoin the updates one by
   one, ∃-quantifying each assigned current bit as soon as no remaining
   update reads it, and move the assigned next bits back onto their
   current bits inside the last product — the unassigned variables never
   leave their current bits. *)
let post space s p =
  Kpt_obs.incr c_eq_images;
  let m = Space.manager space in
  let pdg = Bdd.and_ m (Bdd.and_ m p (Space.domain space)) (guard_pred space s) in
  run m (image_schedule space s) pdg

(* The skip branch adds [p ∧ ¬g] as it is, one [diff]. *)
let sp space s p =
  let m = Space.manager space in
  let fire = post space s p in
  Bdd.or_ m fire (Bdd.diff m (Bdd.and_ m p (Space.domain space)) (guard_pred space s))

(* wp through the same partition, with no complement on the path.  With
   [A] the assigned variables and [U' = ⋀ v∈A :: v = rhs_v[A := A']]:

     wp = ite(g, (∃A. p ∧ U')[A' := A] ∨ nofit, p)

   i.e. the substitution [p[A := rhs]] when the guard holds, [p] when it
   does not.  This is the complement form [ite(g, ¬∃A'. (¬p)[A := A'] ∧
   U, p)] of the forward updates [U = ⋀ v∈A :: v' = rhs_v] exactly:
   [Bitvec.eq] zero-extends and each update owns exactly its target's
   bits, so the updates have one solution where every right-hand side
   fits its target's bits — there ∃ and ∀ agree — and none elsewhere,
   where ∀ is vacuously true and [nofit] holds.  [p] is never renamed:
   the reversed updates read [A'], and the last product moves it back. *)
let wp space s p =
  let m = Space.manager space in
  let sched, nofit = pre_schedule space s in
  Bdd.ite m (guard_pred space s) (Bdd.or_ m (run m sched p) nofit) p

(* The statement maps a state to itself iff it is disabled there or every
   assigned variable already holds its right-hand side: [g ⇒ ⋀_{v∈A} v =
   rhs_v].  Unassigned variables keep their values by construction, so no
   frame enters. *)
let unchanged space s =
  let m = Space.manager space in
  let holds (v, rhs) = Bitvec.eq m (Space.cur_vec space v) rhs in
  Bdd.imp m (guard_pred space s) (Bdd.conj m (List.map holds (updates space s)))

let exec space s st =
  let env v = st.(Space.idx v) in
  let enabled =
    match s.guard with
    | Gexpr e -> Expr.eval_bool e env
    | Gpred p -> Space.holds_at space p st
  in
  let st' = Array.copy st in
  if enabled then
    List.iter
      (fun (v, rhs) ->
        let value = Expr.eval rhs env in
        if value < 0 || value >= Space.card v then
          ill_formed "statement %s drives %s out of range (%d)" s.sname (Space.name v) value;
        st'.(Space.idx v) <- value)
      s.assigns;
  st'

let pp fmt s =
  let pp_assign fmt (v, rhs) = Format.fprintf fmt "%s := %a" (Space.name v) Expr.pp rhs in
  Format.fprintf fmt "@[<hov 2>%s:@ %a" s.sname
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ∥@ ") pp_assign)
    s.assigns;
  (match s.guard with
  | Gexpr (Expr.Cbool true) -> ()
  | Gexpr e -> Format.fprintf fmt "@ if %a" Expr.pp e
  | Gpred _ -> Format.fprintf fmt "@ if ⟨predicate⟩");
  Format.fprintf fmt "@]"

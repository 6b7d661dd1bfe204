open Kpt_predicate

type guard = Gexpr of Expr.t | Gpred of Bdd.t

(* Early-quantification observability: [images] counts statement images,
   [steps] the update conjuncts that images and pre-images were
   decomposed into. *)
let c_eq_images = Kpt_obs.counter "space.early_quant.images"
let c_eq_steps = Kpt_obs.counter "space.early_quant.steps"

(* The frame-free partition of the fire branch: one update conjunct
   [v' = rhs_v] per assigned variable, in declaration order, with its
   quantification cubes built once.  Unassigned variables never enter the
   relation — an image or a pre-image leaves their current bits alone —
   so a statement pays only for the variables it writes.  Each assigned
   current bit is quantified right after the last conjunct that reads it
   (after the first if none does), so the intermediate products never
   carry more of the old state than the remaining conjuncts need. *)
type schedule = {
  q_parts : (Bdd.t * Bdd.cube * Bdd.cube) list;
      (* update conjunct · assigned current bits to ∃ after it (image) ·
         its target's next bits (wp) *)
  q_cur : Bdd.cube; (* current bits of the assigned variables *)
  q_next : Bdd.cube; (* next bits of the assigned variables *)
  q_nofit : Bdd.t;
      (* ¬∃A'. U: the states where some right-hand side does not fit its
         target's bits (wp) *)
}

(* Compiled-relation caches.  Each entry is keyed on the space it was
   compiled for (physical identity) so a statement reused against another
   space recompiles transparently.

   The [shared] part holds guard-independent data (the update schedule
   and the range-overflow set of the assignments); [with_guard_pred]
   keeps it physically shared, so re-instantiating a knowledge-based
   protocol at a new candidate invariant — same assignments, new guard —
   reuses the compiled updates across every Ĝ-iteration. *)
type shared_cache = {
  mutable s_parts : (Space.t * schedule) option;
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

let fresh_cache () = { shared = { s_parts = None; s_over = None }; c_guard = None }

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

(* Right-hand side of v as a symbolic bit-vector (booleans become 1-bit). *)
let rhs_vec sp rhs =
  match Expr.compile sp rhs with
  | Expr.Sint vec -> vec
  | Expr.Sbool b -> Bitvec.of_bits [| b |]

(* Guard-independent overflow set: states where some right-hand side falls
   outside its target's range. *)
let over_pred sp s =
  cached s.cache.shared.s_over sp
    (fun () ->
      let m = Space.manager sp in
      Bdd.disj m
        (List.map
           (fun (v, rhs) ->
             let vec = rhs_vec sp rhs in
             let bound =
               Bitvec.const m
                 ~width:(max (Bitvec.width vec) (Space.width v))
                 (Space.card v - 1)
             in
             Bdd.not_ m (Bitvec.le m vec bound))
           s.assigns))
    (fun v -> s.cache.shared.s_over <- v)

let totality_violation sp s =
  let m = Space.manager sp in
  Bdd.conj m [ Space.domain sp; guard_pred sp s; over_pred sp s ]

let build_schedule sp s =
  let m = Space.manager sp in
  let assigned =
    List.filter_map
      (fun v -> List.find_opt (fun (u, _) -> Space.idx u = Space.idx v) s.assigns)
      (Space.vars sp)
  in
  let parts =
    List.map (fun (v, rhs) -> (v, Bitvec.eq m (Space.next_vec sp v) (rhs_vec sp rhs))) assigned
  in
  let cur_bits = List.concat_map (fun (v, _) -> Space.current_bits v) assigned in
  (* the last update reading each bit *)
  let last = Hashtbl.create 16 in
  List.iteri (fun i (_, c) -> List.iter (fun b -> Hashtbl.replace last b i) (Bdd.support m c)) parts;
  let quantified_after i =
    List.filter (fun b -> Option.value (Hashtbl.find_opt last b) ~default:0 = i) cur_bits
  in
  let q_parts =
    List.mapi
      (fun i (v, c) -> (c, Bdd.cube m (quantified_after i), Bdd.cube m (Space.next_bits v)))
      parts
  in
  {
    q_parts;
    q_cur = Bdd.cube m cur_bits;
    q_next = Bdd.cube m (List.concat_map (fun (v, _) -> Space.next_bits v) assigned);
    (* each update owns its target's next bits, so ∃A'. U is the
       conjunction of the per-update projections *)
    q_nofit =
      Bdd.not_ m (Bdd.conj m (List.map (fun (c, _, nxt) -> Bdd.exists m nxt c) q_parts));
  }

let schedule sp s =
  cached s.cache.shared.s_parts sp
    (fun () -> build_schedule sp s)
    (fun v -> s.cache.shared.s_parts <- v)

(* Image of [p] under the statement, over current bits.  Fire branch:
   conjoin the updates one by one, ∃-quantifying each assigned current
   bit as soon as no remaining update reads it, then move the assigned
   next bits back onto their current bits — the unassigned variables
   never leave their current bits.  Skip branch: [p ∧ ¬g] as it is,
   one [diff]. *)
let sp space s p =
  Kpt_obs.incr c_eq_images;
  let m = Space.manager space in
  let g = guard_pred space s in
  let sched = schedule space s in
  let pd = Bdd.and_ m p (Space.domain space) in
  let fire =
    List.fold_left
      (fun acc (c, cur, _) ->
        Kpt_obs.incr c_eq_steps;
        Bdd.and_exists m cur acc c)
      (Bdd.and_ m pd g) sched.q_parts
  in
  Bdd.or_ m (Bdd.swap_pairs m sched.q_next fire) (Bdd.diff m pd g)

(* wp through the same partition, with no complement on the path.  With
   [A] the assigned variables and [U = ⋀ v∈A :: v' = rhs_v]:

     wp = ite(g, (∃A'. p[A := A'] ∧ U) ∨ nofit, p),  nofit = ¬∃A'. U

   i.e. the substitution [p[A := rhs]] when the guard holds, [p] when it
   does not.  This is the complement form [ite(g, ¬∃A'. (¬p)[A := A'] ∧
   U, p)] exactly: [Bitvec.eq] zero-extends and each update owns exactly
   its target's next bits, so [U] has one solution in [A'] where every
   right-hand side fits its target's bits — there ∃ and ∀ agree — and
   none elsewhere, where ∀ is vacuously true and [nofit] holds.
   [p[A := A']] is a pair swap on the assigned bits only, and each
   update's next bits are quantified right after it. *)
let wp space s p =
  let m = Space.manager space in
  let g = guard_pred space s in
  let sched = schedule space s in
  let good =
    List.fold_left
      (fun acc (c, _, nxt) ->
        Kpt_obs.incr c_eq_steps;
        Bdd.and_exists m nxt acc c)
      (Bdd.swap_pairs m sched.q_cur p)
      sched.q_parts
  in
  Bdd.ite m g (Bdd.or_ m good sched.q_nofit) p

(* The statement maps a state to itself iff it is disabled there or every
   assigned variable already holds its right-hand side: [g ⇒ ⋀_{v∈A} v =
   rhs_v].  Unassigned variables keep their values by construction, so no
   frame enters. *)
let unchanged space s =
  let m = Space.manager space in
  let holds (v, rhs) = Bitvec.eq m (Space.cur_vec space v) (rhs_vec space rhs) in
  Bdd.imp m (guard_pred space s) (Bdd.conj m (List.map holds s.assigns))

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

type typ = Tbool | Tnat of int | Tenum of string array

(* Cylinder-machinery counters: [quant_data] is the memo every
   wcyl/knowledge call goes through, so its hit rate is the direct
   measure of how much the per-variable-set caching saves. *)
let c_quant_hit = Kpt_obs.counter "space.quant_cache.hits"
let c_quant_miss = Kpt_obs.counter "space.quant_cache.misses"

type var = {
  vname : string;
  vidx : int;
  vtyp : typ;
  voffset : int; (* first bit slot *)
  vwidth : int;
}

type state = int array

(* Everything the symbolic engine asks for repeatedly — the domain
   predicate, the flattened bit list, the per-variable bit-vectors and
   the quantification data used by [wcyl] — is a pure function of the
   declared variables, so it is memoised here and invalidated (or
   generation-stamped) when a new variable is declared.  Fixpoint loops
   then pay for each of these once instead of once per iteration. *)
type t = {
  man : Bdd.manager;
  eng : Engine.t; (* context this space (and its metrics) belongs to *)
  mutable decls : var list; (* reversed *)
  mutable nslots : int;
  byname : (string, var) Hashtbl.t;
  mutable gen : int; (* bumped on each declaration *)
  mutable c_domain : Bdd.t option;
  mutable c_cur_bits : int list option;
  vec_tbl : (int, Bitvec.t * Bitvec.t) Hashtbl.t; (* vidx → cur, next vectors *)
  quant_tbl : (int list, Bdd.cube * Bdd.t) Hashtbl.t;
      (* sorted vidx list → cube of the current bits, local-domain predicate *)
  compl_tbl : (int list, int * var list) Hashtbl.t;
      (* sorted vidx list → generation it was computed at, complement *)
}

let create ?engine () =
  let eng = match engine with Some e -> e | None -> Engine.current () in
  (* The engine decides the reordering policy (see {!Engine.reorder_mode}):
     [Reorder_auto] arms the manager's growth-triggered sifting. *)
  let auto = Engine.reorder_mode eng = Engine.Reorder_auto in
  {
    man = Bdd.create ~reorder:auto ();
    eng;
    decls = [];
    nslots = 0;
    byname = Hashtbl.create 16;
    gen = 0;
    c_domain = None;
    c_cur_bits = None;
    vec_tbl = Hashtbl.create 16;
    quant_tbl = Hashtbl.create 16;
    compl_tbl = Hashtbl.create 16;
  }

let manager sp = sp.man
let engine sp = sp.eng
let reorder sp = Bdd.reorder sp.man

let bits_for card =
  let rec go w = if 1 lsl w >= card then w else go (w + 1) in
  if card <= 1 then 1 else go 1

let declare sp name typ =
  if Hashtbl.mem sp.byname name then
    invalid_arg (Printf.sprintf "Space: duplicate variable %S" name);
  let card = match typ with Tbool -> 2 | Tnat m -> m + 1 | Tenum vs -> Array.length vs in
  if card < 1 then invalid_arg "Space: empty domain";
  let v =
    {
      vname = name;
      vidx = List.length sp.decls;
      vtyp = typ;
      voffset = sp.nslots;
      vwidth = bits_for card;
    }
  in
  sp.nslots <- sp.nslots + v.vwidth;
  sp.decls <- v :: sp.decls;
  Hashtbl.add sp.byname name v;
  (* invalidate whole-space caches; per-variable-set entries stay valid
     (their value does not depend on the other variables) except the
     complements, which are generation-checked on lookup *)
  sp.gen <- sp.gen + 1;
  sp.c_domain <- None;
  sp.c_cur_bits <- None;
  v

let bool_var sp name = declare sp name Tbool

let nat_var sp name ~max =
  if max < 0 then invalid_arg "Space.nat_var: negative max";
  declare sp name (Tnat max)

let enum_var sp name ~values = declare sp name (Tenum values)
let vars sp = List.rev sp.decls
let find sp name = Hashtbl.find sp.byname name
let name v = v.vname
let idx v = v.vidx
let card v = match v.vtyp with Tbool -> 2 | Tnat m -> m + 1 | Tenum vs -> Array.length vs
let width v = v.vwidth

let value_name v k =
  match v.vtyp with
  | Tbool -> if k = 0 then "false" else "true"
  | Tnat _ -> string_of_int k
  | Tenum vs -> vs.(k)

let enum_labels v = match v.vtyp with Tenum vs -> Array.to_list vs | Tbool | Tnat _ -> []

let current_bits v = List.init v.vwidth (fun k -> 2 * (v.voffset + k))
let next_bits v = List.init v.vwidth (fun k -> (2 * (v.voffset + k)) + 1)

let all_current_bits sp =
  match sp.c_cur_bits with
  | Some bs -> bs
  | None ->
      let bs = List.concat_map current_bits (vars sp) in
      sp.c_cur_bits <- Some bs;
      bs

let vecs sp v =
  match Hashtbl.find_opt sp.vec_tbl v.vidx with
  | Some vecs -> vecs
  | None ->
      let cur =
        Bitvec.of_bits (Array.init v.vwidth (fun k -> Bdd.var sp.man (2 * (v.voffset + k))))
      in
      let nxt =
        Bitvec.of_bits
          (Array.init v.vwidth (fun k -> Bdd.var sp.man ((2 * (v.voffset + k)) + 1)))
      in
      Hashtbl.add sp.vec_tbl v.vidx (cur, nxt);
      (cur, nxt)

let cur_vec sp v = fst (vecs sp v)
let next_vec sp v = snd (vecs sp v)

let range_constraint sp vec v = Bitvec.le sp.man vec (Bitvec.const sp.man ~width:v.vwidth (card v - 1))

let domain sp =
  match sp.c_domain with
  | Some d -> d
  | None ->
      let d =
        Bdd.conj sp.man
          (List.filter_map
             (fun v ->
               if card v = 1 lsl v.vwidth then None
               else Some (range_constraint sp (cur_vec sp v) v))
             (vars sp))
      in
      sp.c_domain <- Some d;
      d

let varset_key vs = List.sort_uniq compare (List.map (fun v -> v.vidx) vs)

(* Quantification data for a variable set: the cube of its current bits and
   the range constraints of exactly those variables ([local domain] — the
   relativisation that keeps ∀/∃ ranging over type-correct values only).
   Both depend only on the variables themselves, so entries survive later
   declarations. *)
let quant_data sp vs =
  let key = varset_key vs in
  match Hashtbl.find_opt sp.quant_tbl key with
  | Some data ->
      Kpt_obs.incr c_quant_hit;
      data
  | None ->
      Kpt_obs.incr c_quant_miss;
      let cube = Bdd.cube sp.man (List.concat_map current_bits vs) in
      let local =
        Bdd.conj sp.man
          (List.filter_map
             (fun v ->
               if card v = 1 lsl v.vwidth then None
               else Some (range_constraint sp (cur_vec sp v) v))
             vs)
      in
      Hashtbl.add sp.quant_tbl key (cube, local);
      (cube, local)

let complement sp vs =
  let key = varset_key vs in
  match Hashtbl.find_opt sp.compl_tbl key with
  | Some (g, res) when g = sp.gen -> res
  | _ ->
      let res =
        List.filter (fun v -> not (List.exists (fun u -> u.vidx = v.vidx) vs)) (vars sp)
      in
      Hashtbl.replace sp.compl_tbl key (sp.gen, res);
      res

let state_count_exact sp =
  List.fold_left (fun acc v -> Bigcount.mul_int acc (card v)) Bigcount.one (vars sp)

(* The walk is exponential in the variable count, so it polls the engine
   budget once per 1024 states: a [--timeout] interrupts it like any
   fixpoint loop.  Fuel is never consumed here, and the clock is read only
   when a deadline is armed, so unbudgeted runs stay deterministic. *)
let iter_states sp f =
  let vs = Array.of_list (vars sp) in
  let n = Array.length vs in
  let st = Array.make (max n 1) 0 in
  let visited = ref 0 in
  let rec go i =
    if i = n then begin
      incr visited;
      if !visited land 1023 = 0 then Engine.checkpoint ();
      f st
    end
    else
    for value = 0 to card vs.(i) - 1 do
      st.(i) <- value;
      go (i + 1)
    done
  in
  go 0

(* Valuation of current bits induced by a state. *)
let valuation sp st bit =
  assert (bit land 1 = 0);
  let slot = bit / 2 in
  let v = List.find (fun v -> v.voffset <= slot && slot < v.voffset + v.vwidth) (vars sp) in
  (st.(v.vidx) lsr (slot - v.voffset)) land 1 = 1

let holds_at sp p st = Bdd.eval p (valuation sp st)

let pred_of_state sp st =
  List.fold_left
    (fun acc v -> Bdd.and_ sp.man acc (Bitvec.eq_const sp.man (cur_vec sp v) st.(v.vidx)))
    (Bdd.tru sp.man) (vars sp)

(* The states of [p] in [iter_states] order, walked symbolically: each
   variable in declaration order, and within it each bit from the most
   significant down (low branch first), so values come out increasing.
   Only branches where [p ∧ domain] stays satisfiable are entered, so the
   cost is about two conjunctions per bit per state produced, never a
   walk over the space.  The callback's array is reused, and the budget
   is polled once per state produced. *)
let walk_states sp p f =
  let m = sp.man in
  let vs = Array.of_list (vars sp) in
  let n = Array.length vs in
  let st = Array.make (max n 1) 0 in
  let rec var i p =
    if i = n then begin
      Engine.checkpoint ();
      f st
    end
    else bit i (vs.(i).vwidth - 1) 0 p
  and bit i k value p =
    if k < 0 then begin
      st.(i) <- value;
      var (i + 1) p
    end
    else begin
      let b = 2 * (vs.(i).voffset + k) in
      let lo = Bdd.and_ m p (Bdd.nvar m b) in
      if not (Bdd.is_false lo) then bit i (k - 1) value lo;
      let hi = Bdd.and_ m p (Bdd.var m b) in
      if not (Bdd.is_false hi) then bit i (k - 1) (value lor (1 lsl k)) hi
    end
  in
  let p = Bdd.and_ m p (domain sp) in
  if not (Bdd.is_false p) then var 0 p

let states_of sp p =
  let acc = ref [] in
  walk_states sp p (fun st -> acc := Array.copy st :: !acc);
  List.rev !acc

let first_state sp p =
  let exception First of state in
  match walk_states sp p (fun st -> raise (First (Array.copy st))) with
  | () -> None
  | exception First st -> Some st

(* Symbolic state counting: a state predicate depends only on current
   (even) bits, so its exact model count over {e all} [2·nslots] bit
   copies is the state count times 2^nslots (each absent next bit is a
   don't-care) — one exact halving per slot recovers the state count in
   O(nodes) instead of a walk over the whole state space.  (Counting this
   way rather than squeezing the even bits onto consecutive indices needs
   no rename, and stays valid when the manager has reordered — the
   squeeze map is only order-preserving under the identity order.)
   Conjoining the domain first discards out-of-range encodings of
   non-power-of-two sorts.  A predicate that does mention next-state bits
   (no normalized state predicate does) falls back to explicit
   enumeration. *)
let count_states_exact sp p =
  let q = Bdd.and_ sp.man p (domain sp) in
  if List.exists (fun b -> b land 1 = 1) (Bdd.support sp.man q) then begin
    let n = ref 0 in
    iter_states sp (fun st -> if holds_at sp p st then incr n);
    Bigcount.of_int !n
  end
  else
    Bigcount.shift_right (Bdd.sat_count_exact sp.man ~nvars:(2 * sp.nslots) q) sp.nslots

let count_states_of sp p =
  match Bigcount.to_int (count_states_exact sp p) with
  | Some n -> n
  | None -> max_int

let pp_state sp fmt st =
  Format.fprintf fmt "@[<h>⟨";
  List.iteri
    (fun i v ->
      if i > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "%s=%s" v.vname (value_name v st.(v.vidx)))
    (vars sp);
  Format.fprintf fmt "⟩"

(* A set is listed up to [pp_limit] states; the walk stops at the next
   one, and the rest are counted symbolically, never walked. *)
let pp_limit = 100

let pp_pred sp fmt p =
  let exception Full in
  let shown = ref [] and n = ref 0 in
  let more =
    match
      walk_states sp p (fun st ->
          if !n = pp_limit then raise Full;
          shown := Array.copy st :: !shown;
          incr n)
    with
    | () -> None
    | exception Full ->
        let listed =
          List.fold_left
            (fun q st -> Bdd.or_ sp.man q (pred_of_state sp st))
            (Bdd.fls sp.man) !shown
        in
        Some (count_states_exact sp (Bdd.diff sp.man p listed))
  in
  Format.fprintf fmt "@[<hov 2>{";
  List.iteri
    (fun i st ->
      if i > 0 then Format.fprintf fmt ",@ ";
      pp_state sp fmt st)
    (List.rev !shown);
  Option.iter (fun m -> Format.fprintf fmt ",@ … (%a more)" Bigcount.pp m) more;
  Format.fprintf fmt "}@]"

open Kpt_syntax
open Kpt_predicate
open Kpt_unity

module S = Set.Make (String)

type kop = {
  agents : string list;
  kspan : Loc.span;
  kreads : S.t;
  negated_reads : S.t;
  negative_position : bool;
}

type stmt_rw = {
  writes : S.t;
  rhs_reads : S.t;
  guard_plain : S.t;
  kops : kop list;
}

(* Polarity of an occurrence: positive, negative, or both (under <=>). *)
type pol = Pos | Neg | Both

let flip = function Pos -> Neg | Neg -> Pos | Both -> Both

(* One walk collects everything a pass could want from a guard: the reads
   outside knowledge operators, and per operator the reads inside it, the
   reads occurring there under negative polarity, and whether the operator
   itself sits in negative position. *)
let analyse_guard ~vars guard =
  let kops = ref [] in
  (* [inside]: when [Some (reads, negs)], we are inside a knowledge
     operator and leaf occurrences accumulate there; otherwise they go to
     the plain guard set. *)
  let plain = ref S.empty in
  let leaf inside _pol name =
    if S.mem name vars then
      match inside with
      | None -> plain := S.add name !plain
      | Some (reads, _) -> reads := S.add name !reads
  in
  let neg_leaf inside pol name =
    if S.mem name vars && pol <> Pos then
      match inside with
      | None -> ()
      | Some (_, negs) -> negs := S.add name !negs
  in
  let rec go inside pol (e : Ast.expr) =
    match e.Ast.expr with
    | Ast.Etrue | Ast.Efalse | Ast.Enum _ -> ()
    | Ast.Eident name ->
        leaf inside pol name;
        neg_leaf inside pol name
    | Ast.Eindex (name, idx) ->
        leaf inside pol name;
        neg_leaf inside pol name;
        (* the index is data, not a monotone boolean position *)
        go inside Both idx
    | Ast.Enot a -> go inside (flip pol) a
    | Ast.Eand (a, b) | Ast.Eor (a, b) ->
        go inside pol a;
        go inside pol b
    | Ast.Eimp (a, b) ->
        go inside (flip pol) a;
        go inside pol b
    | Ast.Eiff (a, b) ->
        go inside Both a;
        go inside Both b
    | Ast.Eeq (a, b) | Ast.Ene (a, b) | Ast.Elt (a, b) | Ast.Ele (a, b)
    | Ast.Egt (a, b) | Ast.Ege (a, b) ->
        (* a comparison's variables occur at the comparison's polarity *)
        go_data inside pol a;
        go_data inside pol b
    | Ast.Eadd (a, b) | Ast.Esub (a, b) ->
        go_data inside pol a;
        go_data inside pol b
    | Ast.Eknow (p, body) -> kop inside pol [ p ] e.Ast.espan body
    | Ast.Egroup (_, ps, body) -> kop inside pol ps e.Ast.espan body
  and go_data inside pol (e : Ast.expr) =
    (* below a comparison: every variable occurrence inherits [pol] *)
    match e.Ast.expr with
    | Ast.Eident name ->
        leaf inside pol name;
        neg_leaf inside pol name
    | Ast.Eindex (name, idx) ->
        leaf inside pol name;
        neg_leaf inside pol name;
        go_data inside Both idx
    | _ -> (
        match e.Ast.expr with
        | Ast.Enot a -> go_data inside (flip pol) a
        | Ast.Eand (a, b) | Ast.Eor (a, b) | Ast.Eimp (a, b) | Ast.Eiff (a, b)
        | Ast.Eeq (a, b) | Ast.Ene (a, b) | Ast.Elt (a, b) | Ast.Ele (a, b)
        | Ast.Egt (a, b) | Ast.Ege (a, b) | Ast.Eadd (a, b) | Ast.Esub (a, b) ->
            go_data inside pol a;
            go_data inside pol b
        | Ast.Eknow (p, body) -> kop inside pol [ p ] e.Ast.espan body
        | Ast.Egroup (_, ps, body) -> kop inside pol ps e.Ast.espan body
        | Ast.Etrue | Ast.Efalse | Ast.Enum _ | Ast.Eident _ | Ast.Eindex _ -> ())
  and kop inside pol agents kspan body =
    let reads = ref S.empty and negs = ref S.empty in
    (* knowledge restarts polarity: K_i(φ)'s dependence on φ is positive *)
    go (Some (reads, negs)) Pos body;
    kops :=
      {
        agents;
        kspan;
        kreads = !reads;
        negated_reads = !negs;
        negative_position = pol <> Pos;
      }
      :: !kops;
    (* the enclosing context still reads whatever the body reads *)
    match inside with
    | None -> ()
    | Some (outer_reads, _) -> outer_reads := S.union !outer_reads !reads
  in
  go None Pos guard;
  (!plain, List.rev !kops)

let reads ~vars e =
  let plain, kops = analyse_guard ~vars e in
  List.fold_left (fun acc k -> S.union acc k.kreads) plain kops

let of_stmt ~vars (s : Ast.stmt) =
  let writes =
    List.fold_left
      (fun acc -> function
        | Ast.Tvar v -> S.add v acc
        | Ast.Tindex (v, _) -> S.add v acc)
      S.empty s.Ast.s_targets
  in
  let index_reads =
    List.fold_left
      (fun acc -> function
        | Ast.Tvar _ -> acc
        | Ast.Tindex (_, idx) -> S.union acc (reads ~vars idx))
      S.empty s.Ast.s_targets
  in
  let rhs_reads =
    List.fold_left (fun acc e -> S.union acc (reads ~vars e)) index_reads s.Ast.s_exprs
  in
  let guard_plain, kops =
    match s.Ast.s_guard with
    | None -> (S.empty, [])
    | Some g -> analyse_guard ~vars g
  in
  { writes; rhs_reads; guard_plain; kops }

let all_reads rw =
  List.fold_left
    (fun acc k -> S.union acc k.kreads)
    (S.union rw.rhs_reads rw.guard_plain)
    rw.kops

(* ---- semantic granularity ------------------------------------------------ *)

module V = Set.Make (Int)

let var_of_idx sp i = List.find (fun v -> Space.idx v = i) (Space.vars sp)

let of_vars vs = List.fold_left (fun acc v -> V.add (Space.idx v) acc) V.empty vs

let stmt_writes (s : Stmt.t) = of_vars (Stmt.assigned_vars s)

(* BDD bit → program variable, for pre-compiled guard predicates. *)
let vars_of_support sp bits =
  let by_bit = Hashtbl.create 64 in
  List.iter
    (fun v ->
      List.iter (fun b -> Hashtbl.replace by_bit b v) (Space.current_bits v);
      List.iter (fun b -> Hashtbl.replace by_bit b v) (Space.next_bits v))
    (Space.vars sp);
  List.fold_left
    (fun acc b ->
      match Hashtbl.find_opt by_bit b with
      | Some v -> V.add (Space.idx v) acc
      | None -> acc)
    V.empty bits

let stmt_reads sp (s : Stmt.t) =
  let guard_reads =
    match s.Stmt.guard with
    | Stmt.Gexpr e -> of_vars (Expr.vars_of e)
    | Stmt.Gpred p -> vars_of_support sp (Bdd.support (Space.manager sp) p)
  in
  List.fold_left
    (fun acc (_, rhs) -> V.union acc (of_vars (Expr.vars_of rhs)))
    guard_reads s.Stmt.assigns

let close_cone stmts targets =
  let rec fix c =
    let c' =
      List.fold_left
        (fun acc (writes, reads) ->
          if V.is_empty (V.inter writes acc) then acc else V.union acc reads)
        c stmts
    in
    if V.equal c c' then c else fix c'
  in
  fix targets

let program_cone prog targets =
  let sp = Program.space prog in
  close_cone
    (List.map (fun s -> (stmt_writes s, stmt_reads sp s)) (Program.statements prog))
    targets

(* ---- knowledge-based protocols ------------------------------------------- *)

(* Reads of a knowledge guard, operator bodies included: a K body may
   mention anything (that is the point of knowledge), and all of it can
   influence the guard's denotation. *)
let rec kform_reads = function
  | Kpt_core.Kform.Base e -> of_vars (Expr.vars_of e)
  | Kpt_core.Kform.Knot f -> kform_reads f
  | Kpt_core.Kform.Kand (a, b) | Kpt_core.Kform.Kor (a, b)
  | Kpt_core.Kform.Kimp (a, b) ->
      V.union (kform_reads a) (kform_reads b)
  | Kpt_core.Kform.K (_, f)
  | Kpt_core.Kform.Ek (_, f)
  | Kpt_core.Kform.Ck (_, f)
  | Kpt_core.Kform.Dk (_, f) ->
      kform_reads f

let kstmt_writes (s : Kpt_core.Kbp.kstmt) =
  of_vars (List.map fst s.Kpt_core.Kbp.kassigns)

let kstmt_reads (s : Kpt_core.Kbp.kstmt) =
  List.fold_left
    (fun acc (_, rhs) -> V.union acc (of_vars (Expr.vars_of rhs)))
    (kform_reads s.Kpt_core.Kbp.kguard)
    s.Kpt_core.Kbp.kassigns

let kbp_cone k targets =
  close_cone
    (List.map (fun s -> (kstmt_writes s, kstmt_reads s)) (Kpt_core.Kbp.kstmts k))
    targets

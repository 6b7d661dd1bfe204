open Kpt_predicate
open Kpt_unity
open Kpt_core

exception Elab_error of Loc.span option * string

let err fmt = Format.kasprintf (fun s -> raise (Elab_error (None, s))) fmt
let err_at span fmt = Format.kasprintf (fun s -> raise (Elab_error (Some span, s))) fmt

(* Enum literals visible in a space: value name → index.  Requires global
   uniqueness, checked at declaration time for parsed programs and lazily
   here for externally built spaces. *)
let literal_table sp =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      (* only enumerations have labels, so a huge [nat(k)] costs nothing;
         labels spelled like a Boolean or a number are not literals *)
      List.iteri
        (fun k name ->
          if
            name <> "true" && name <> "false"
            && not (String.length name > 0 && name.[0] >= '0' && name.[0] <= '9')
          then
            match Hashtbl.find_opt tbl name with
            | Some k' when k' <> k -> err "enum literal %s is ambiguous" name
            | _ -> Hashtbl.replace tbl name k)
        (Space.enum_labels v))
    (Space.vars sp);
  tbl

type half = E of Expr.t | F of Kform.t

(* arrays in scope: surface name → element variables *)
type ctx = { sp : Space.t; literals : (string, int) Hashtbl.t; arrays : (string, Space.var array) Hashtbl.t }

let as_expr ~at = function
  | E e -> e
  | F _ -> err_at at "knowledge operators may only appear in guards, not in arithmetic or init"

(* Sort checking.  Every expression node is checked where it is built,
   its operands already checked, so the first failure is the innermost
   ill-typed node and the error carries that node's span.  A loaded spec
   then never reaches [Expr.Type_error] when a command compiles it. *)
let sort_name = function Expr.Tbool -> "a boolean" | Expr.Tnat -> "a natural"

let sort ~at e =
  match Expr.typeof e with t -> t | exception Expr.Type_error msg -> err_at at "type error: %s" msg

let typed ~at e =
  ignore (sort ~at e);
  E e

let expect ~at ty what e =
  if sort ~at e <> ty then err_at at "type error: %s must be %s" what (sort_name ty);
  e

let as_kform ~at what = function E e -> Kform.base (expect ~at Expr.Tbool what e) | F f -> f

let rec elab ctx (e : Ast.expr) =
  let at = e.Ast.espan in
  let sub a = as_expr ~at:a.Ast.espan (elab ctx a) in
  match e.Ast.expr with
  | Ast.Etrue -> E Expr.tru
  | Ast.Efalse -> E Expr.fls
  | Ast.Enum n -> E (Expr.nat n)
  | Ast.Eident name -> (
      if Hashtbl.mem ctx.arrays name then err_at at "array %s used without an index" name;
      match Space.find ctx.sp name with
      | v -> E (Expr.var v)
      | exception Not_found -> (
          match Hashtbl.find_opt ctx.literals name with
          | Some k -> E (Expr.nat k)
          | None -> err_at at "unknown identifier %s" name))
  | Ast.Eindex (name, idx) -> (
      match Hashtbl.find_opt ctx.arrays name with
      | Some arr ->
          E (Expr.select arr (expect ~at:idx.Ast.espan Expr.Tnat "an array index" (sub idx)))
      | None -> err_at at "%s is not an array" name)
  | Ast.Enot a -> (
      match elab ctx a with
      | E e -> typed ~at (Expr.not_ e)
      | F f -> F (Kform.knot f))
  | Ast.Eand (a, b) -> bool_op ctx ~at a b (fun x y -> Expr.(x &&& y)) (fun x y -> Kform.(x &&. y))
  | Ast.Eor (a, b) -> bool_op ctx ~at a b (fun x y -> Expr.(x ||| y)) (fun x y -> Kform.(x ||. y))
  | Ast.Eimp (a, b) -> bool_op ctx ~at a b (fun x y -> Expr.(x ==> y)) (fun x y -> Kform.(x ==>. y))
  | Ast.Eiff (a, b) ->
      bool_op ctx ~at a b
        (fun x y -> Expr.Iff (x, y))
        (fun x y -> Kform.((x ==>. y) &&. (y ==>. x)))
  | Ast.Eeq (a, b) -> typed ~at Expr.(sub a === sub b)
  | Ast.Ene (a, b) -> typed ~at Expr.(sub a <<> sub b)
  | Ast.Elt (a, b) -> typed ~at Expr.(sub a <<< sub b)
  | Ast.Ele (a, b) -> typed ~at Expr.(sub a <== sub b)
  | Ast.Egt (a, b) -> typed ~at Expr.(sub a >>> sub b)
  | Ast.Ege (a, b) -> typed ~at Expr.(sub a >== sub b)
  | Ast.Eadd (a, b) -> typed ~at Expr.(sub a +! sub b)
  | Ast.Esub (a, b) -> typed ~at Expr.(sub a -! sub b)
  | Ast.Eknow (p, a) -> F (Kform.k p (as_kform ~at:a.Ast.espan "a knowledge operand" (elab ctx a)))
  | Ast.Egroup (kind, ps, a) ->
      let f = as_kform ~at:a.Ast.espan "a knowledge operand" (elab ctx a) in
      F
        (match kind with
        | Ast.Geveryone -> Kform.ek ps f
        | Ast.Gcommon -> Kform.ck ps f
        | Ast.Gdistributed -> Kform.dk ps f)

and bool_op ctx ~at a b on_expr on_kform =
  match (elab ctx a, elab ctx b) with
  | E x, E y -> typed ~at (on_expr x y)
  | x, y ->
      let what = "an operand of a boolean operator" in
      F (on_kform (as_kform ~at:a.Ast.espan what x) (as_kform ~at:b.Ast.espan what y))

(* Recover array structure from a space's element naming convention
   ("name[k]"), so standalone predicates can index arrays of an already
   elaborated program. *)
let arrays_of_space sp =
  let groups : (string, (int * Space.var) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let name = Space.name v in
      match String.index_opt name '[' with
      | Some i when String.length name > i + 1 && name.[String.length name - 1] = ']' ->
          let base = String.sub name 0 i in
          let idx_s = String.sub name (i + 1) (String.length name - i - 2) in
          (match int_of_string_opt idx_s with
          | Some k ->
              let cur = match Hashtbl.find_opt groups base with Some l -> l | None -> [] in
              Hashtbl.replace groups base ((k, v) :: cur)
          | None -> ())
      | _ -> ())
    (Space.vars sp);
  let arrays = Hashtbl.create 8 in
  Hashtbl.iter
    (fun base elems ->
      let sorted = List.sort compare elems in
      arrays |> fun t -> Hashtbl.replace t base (Array.of_list (List.map snd sorted)))
    groups;
  arrays

let expr sp ast =
  let ctx = { sp; literals = literal_table sp; arrays = arrays_of_space sp } in
  as_expr ~at:ast.Ast.espan (elab ctx ast)

let declare_scalar sp ~at name = function
  | Ast.Tbool -> ignore (Space.bool_var sp name)
  | Ast.Tnat k ->
      if k < 0 then err_at at "nat(%d): negative bound" k;
      ignore (Space.nat_var sp name ~max:k)
  | Ast.Tenum vs ->
      if vs = [] then err_at at "enum with no values";
      ignore (Space.enum_var sp name ~values:(Array.of_list vs))
  | Ast.Tarray _ -> err_at at "nested arrays are not supported"

let program (p : Ast.program) =
  let sp = Space.create () in
  let arrays = Hashtbl.create 8 in
  (* declare variables; a surface name is declared once, scalar or array *)
  let declared = Hashtbl.create 16 in
  List.iter
    (fun (names, ty) ->
      List.iter
        (fun (name, at) ->
          if Hashtbl.mem declared name then
            err_at at "duplicate declaration of variable %s" name;
          Hashtbl.replace declared name ();
          match ty with
          | Ast.Tarray (elem, len) ->
              if len <= 0 then err_at at "array %s has non-positive length" name;
              let elems =
                Array.init len (fun k ->
                    let ename = Printf.sprintf "%s[%d]" name k in
                    declare_scalar sp ~at ename elem;
                    Space.find sp ename)
              in
              Hashtbl.replace arrays name elems
          | _ -> declare_scalar sp ~at name ty)
        names)
    p.Ast.p_vars;
  let ctx = { sp; literals = literal_table sp; arrays } in
  let resolve_var ~at name =
    match Space.find sp name with
    | v -> v
    | exception Not_found -> err_at at "unknown variable %s" name
  in
  (* a process naming an array gets all its elements *)
  let resolve_proc_var ~at name =
    match Hashtbl.find_opt arrays name with
    | Some arr -> Array.to_list arr
    | None -> [ resolve_var ~at name ]
  in
  let processes =
    List.map
      (fun (name, vars, at) ->
        Process.make name (List.concat_map (resolve_proc_var ~at) vars))
      p.Ast.p_processes
  in
  let init =
    let at = p.Ast.p_init.Ast.espan in
    expect ~at Expr.Tbool "the initial condition" (as_expr ~at (elab ctx p.Ast.p_init))
  in
  let stmts =
    List.mapi
      (fun i (s : Ast.stmt) ->
        let at = s.Ast.s_span in
        let name = match s.Ast.s_name with Some n -> n | None -> Printf.sprintf "s%d" i in
        if List.length s.Ast.s_targets <> List.length s.Ast.s_exprs then
          err_at at "statement %s: %d targets but %d expressions" name
            (List.length s.Ast.s_targets) (List.length s.Ast.s_exprs);
        let assigns =
          List.concat
            (List.map2
               (fun target rhs ->
                 let rhs_e = as_expr ~at:rhs.Ast.espan (elab ctx rhs) in
                 let assigned v =
                   let what = Printf.sprintf "the value assigned to %s" (Space.name v) in
                   expect ~at:rhs.Ast.espan (Expr.typeof (Expr.var v)) what rhs_e
                 in
                 match target with
                 | Ast.Tvar tname ->
                     if Hashtbl.mem arrays tname then
                       err_at at "statement %s: array %s assigned without an index" name tname;
                     let v = resolve_var ~at tname in
                     [ (v, assigned v) ]
                 | Ast.Tindex (tname, idx) -> (
                     match Hashtbl.find_opt arrays tname with
                     | Some arr ->
                         Stmt.array_write arr
                           ~index:
                             (expect ~at:idx.Ast.espan Expr.Tnat "an array index"
                                (as_expr ~at:idx.Ast.espan (elab ctx idx)))
                           (assigned arr.(0))
                     | None -> err_at at "statement %s: %s is not an array" name tname))
               s.Ast.s_targets s.Ast.s_exprs)
        in
        let guard =
          match s.Ast.s_guard with
          | None -> Kform.base Expr.tru
          | Some g -> as_kform ~at:g.Ast.espan "a guard" (elab ctx g)
        in
        Kbp.kstmt ~name ~guard assigns)
      p.Ast.p_stmts
  in
  let kbp =
    try Kbp.make sp ~name:p.Ast.p_name ~init ~processes stmts with
    | Kbp.Ill_formed msg -> err "%s" msg
    | Expr.Type_error msg -> err "type error: %s" msg
  in
  (sp, kbp)

open Kpt_predicate
open Kpt_unity

(* ---- the n-station token ring ------------------------------------------- *)

type ring = {
  rprog : Program.t;
  rspace : Space.t;
  token : Space.var;
  busy : Space.var array;
}

let token_ring ~n =
  if n < 2 then invalid_arg "Ring.token_ring: n must be ≥ 2";
  let sp = Space.create () in
  let token = Space.nat_var sp "token" ~max:(n - 1) in
  let busy = Array.init n (fun k -> Space.bool_var sp (Printf.sprintf "busy%d" k)) in
  let open Expr in
  let stmts =
    List.concat
      (List.init n (fun k ->
           [
             Stmt.make
               ~name:(Printf.sprintf "acquire%d" k)
               ~guard:(var token === nat k &&& not_ (var busy.(k)))
               [ (busy.(k), tru) ];
             Stmt.make
               ~name:(Printf.sprintf "release%d" k)
               ~guard:(var token === nat k &&& var busy.(k))
               [ (busy.(k), fls); (token, nat ((k + 1) mod n)) ];
           ]))
  in
  let init = conj ((var token === nat 0) :: List.init n (fun k -> not_ (var busy.(k)))) in
  let rprog = Program.make sp ~name:(Printf.sprintf "token_ring_%d" n) ~init stmts in
  { rprog; rspace = sp; token; busy }

(* Token ring plus an audit monitor: each station bumps a shared saturating
   [log] counter while busy.  The monitors read [busy_k] but nothing reads
   [log] back, so the cone of influence of any busy/token property excludes
   the log — the slicing vehicle for the tests (the plain ring is
   fully connected: every statement stays in every cone). *)
let monitored ~n =
  if n < 2 then invalid_arg "Ring.monitored: n must be ≥ 2";
  let sp = Space.create () in
  let token = Space.nat_var sp "token" ~max:(n - 1) in
  let busy = Array.init n (fun k -> Space.bool_var sp (Printf.sprintf "busy%d" k)) in
  let cap = (2 * n) - 1 in
  let log = Space.nat_var sp "log" ~max:cap in
  let open Expr in
  let stmts =
    List.concat
      (List.init n (fun k ->
           [
             Stmt.make
               ~name:(Printf.sprintf "acquire%d" k)
               ~guard:(var token === nat k &&& not_ (var busy.(k)))
               [ (busy.(k), tru) ];
             Stmt.make
               ~name:(Printf.sprintf "release%d" k)
               ~guard:(var token === nat k &&& var busy.(k))
               [ (busy.(k), fls); (token, nat ((k + 1) mod n)) ];
             Stmt.make
               ~name:(Printf.sprintf "monitor%d" k)
               ~guard:(var busy.(k) &&& not_ (var log === nat cap))
               [ (log, var log +! nat 1) ];
           ]))
  in
  let init =
    conj
      ((var token === nat 0) :: (var log === nat 0)
      :: List.init n (fun k -> not_ (var busy.(k))))
  in
  let rprog =
    Program.make sp ~name:(Printf.sprintf "monitored_ring_%d" n) ~init stmts
  in
  { rprog; rspace = sp; token; busy }

let mutex_ok r =
  let sp = r.rspace in
  let m = Space.manager sp in
  let n = Array.length r.busy in
  (* at most one station busy: no pair simultaneously busy *)
  Bdd.conj m
    (List.concat
       (List.init n (fun k ->
            List.init (n - k - 1) (fun d ->
                let j = k + d + 1 in
                Bdd.not_ m
                  (Bdd.and_ m
                     (Expr.compile_bool sp (Expr.var r.busy.(k)))
                     (Expr.compile_bool sp (Expr.var r.busy.(j))))))))

let holder_busy r =
  let sp = r.rspace in
  let open Expr in
  Expr.compile_bool sp
    (disj
       (List.init (Array.length r.busy) (fun k ->
            (var r.token === nat k) &&& var r.busy.(k))))

(* ---- the mirrored-counters stress instance ------------------------------ *)

type mirror = {
  mprog : Program.t;
  mspace : Space.t;
  left : Space.var array;
  right : Space.var array;
}

let mirror ~n ~width =
  if n < 2 then invalid_arg "Ring.mirror: n must be ≥ 2";
  if width < 1 then invalid_arg "Ring.mirror: width must be ≥ 1";
  let k = 1 lsl width in
  let sp = Space.create () in
  (* Adversarial declaration order: every left counter before every right
     one, and the right block reversed — under the static order the
     reachable set ⋀ l_i = r_i must thread all n counter values across
     the block boundary, a k^n-wide waist; the pairwise-interleaved order
     (the one sifting converges to) keeps it linear in n·width. *)
  let left = Array.init n (fun i -> Space.nat_var sp (Printf.sprintf "l%d" i) ~max:(k - 1)) in
  let right =
    Array.init n (fun i -> Space.nat_var sp (Printf.sprintf "r%d" (n - 1 - i)) ~max:(k - 1))
  in
  let right = Array.init n (fun i -> right.(n - 1 - i)) in
  let open Expr in
  let bump v = Ite (var v === nat (k - 1), nat 0, var v +! nat 1) in
  let stmts =
    List.init n (fun i ->
        Stmt.make
          ~name:(Printf.sprintf "step%d" i)
          [ (left.(i), bump left.(i)); (right.(i), bump right.(i)) ])
  in
  let init =
    conj
      (List.init n (fun i -> var left.(i) === nat 0)
      @ List.init n (fun i -> var right.(i) === nat 0))
  in
  let mprog = Program.make sp ~name:(Printf.sprintf "mirror_%d_%d" n width) ~init stmts in
  { mprog; mspace = sp; left; right }

let agreement mr =
  let sp = mr.mspace in
  let open Expr in
  Expr.compile_bool sp
    (conj
       (List.init (Array.length mr.left) (fun i -> var mr.left.(i) === var mr.right.(i))))

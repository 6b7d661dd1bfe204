(* Cone-of-influence slicing as a model reduction, and the read/write
   analysis granularity it rests on:

   - [kpt check --slice] is byte-identical to the unsliced run (text and
     JSON) over the spec corpus: the conservative property-less slice is
     the identity on every bundled spec;
   - token_ring_8 is fully connected — its cone keeps all 16 statements
     (pinned, so nobody "optimises" the ring expecting a reduction);
   - the monitored ring is the reduction vehicle: slicing with respect
     to the mutual-exclusion property drops every monitor statement,
     preserves the verdict, and shrinks the SI's BDD;
   - [Rw] edge cases: guard-only reads, self-assignments, and knowledge
     guards reading across the process partition;
   - the slice constructors reject empty and foreign statement lists. *)

module Slice = Kpt_analysis.Slice
module Check = Kpt_analysis.Check
module Rw = Kpt_analysis.Rw
module V = Rw.V
module Space = Kpt_predicate.Space
module Bdd = Kpt_predicate.Bdd
module Expr = Kpt_unity.Expr
module Stmt = Kpt_unity.Stmt
module Program = Kpt_unity.Program
module Process = Kpt_unity.Process
module Kbp = Kpt_core.Kbp
module Kform = Kpt_core.Kform
module Ring = Kpt_protocols.Ring

let corpus () =
  Sys.readdir "../examples/specs" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".unity")
  |> List.sort compare
  |> List.map (fun n -> ("examples/specs/" ^ n, Helpers.slurp ("../examples/specs/" ^ n)))

let load path =
  Kpt_syntax.Elaborate.program
    (Kpt_syntax.Parser.program_of_string (Helpers.slurp path))

let to_string render reports =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  render ppf reports;
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* ---- the corpus pin: sliced solve is byte-identical --------------------------- *)

let test_check_slice_identical () =
  let sources = corpus () in
  let plain = Check.reports ~jobs:2 sources in
  let sliced = Check.reports ~jobs:2 ~slice:true sources in
  Alcotest.(check string) "check --slice text is byte-identical"
    (to_string Check.render_text plain)
    (to_string Check.render_text sliced);
  Alcotest.(check string) "check --slice JSON is byte-identical"
    (Json.to_pretty (Check.to_json plain))
    (Json.to_pretty (Check.to_json sliced))

let test_token_ring_8_fully_connected () =
  (* the done-counter guards [done < 8] make every rest statement read
     the variable every other rest statement writes: the cone of any
     seed that touches the ring is everything, and the slice keeps all
     16 statements.  Pinned so the bench vehicle stays Ring.monitored. *)
  let _, kbp = load "../examples/specs/token_ring_8.unity" in
  let sliced, info = Slice.kbp kbp in
  Alcotest.(check bool) "property-less slice is the identity" true
    (Slice.is_identity info);
  Alcotest.(check int) "all 16 statements kept" 16 (List.length info.Slice.kept);
  Alcotest.(check bool) "the identity slice returns the protocol itself" true
    (sliced == kbp)

let test_ring_mon_surface_identity () =
  (* init constrains the log, so the conservative seed contains it and
     the property-less slice keeps the monitors *)
  let _, kbp = load "../examples/analysis/ring_mon.unity" in
  let _, info = Slice.kbp kbp in
  Alcotest.(check bool) "property-less slice of ring_mon is the identity" true
    (Slice.is_identity info)

(* ---- the monitored ring: a real reduction ------------------------------------- *)

let test_monitored_ring_reduction () =
  let r = Ring.monitored ~n:6 in
  let prog = r.Ring.rprog in
  let sp = r.Ring.rspace in
  let p = Ring.mutex_ok r in
  let sliced, info = Slice.program ~wrt:[ p ] prog in
  Alcotest.(check int) "the six monitors are dropped" 6
    (List.length info.Slice.dropped);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is a monitor") true
        (String.length n >= 7 && String.sub n 0 7 = "monitor"))
    info.Slice.dropped;
  Alcotest.(check int) "the ring proper is kept" 12 (List.length info.Slice.kept);
  Alcotest.(check bool) "mutex invariant on the full program" true
    (Program.invariant prog p);
  Alcotest.(check bool) "mutex invariant on the slice" true
    (Program.invariant sliced p);
  let log_idx = Space.idx (List.nth (Space.vars sp) (List.length (Space.vars sp) - 1)) in
  Alcotest.(check bool) "the log is outside the cone" false
    (V.mem log_idx info.Slice.cone)

(* The reduction itself is about the work of the fixpoint, not the final
   SI's size (the full run saturates the log over all values, so its SI
   is log-independent, while the slice freezes log = 0 — slightly MORE
   nodes in the final predicate).  What the slice avoids is threading
   the log through every frontier image: total node allocation across
   the solve must drop.  Each side gets its own fresh manager. *)
let test_monitored_ring_fewer_nodes () =
  let allocated ~slice =
    let r = Ring.monitored ~n:8 in
    let prog = r.Ring.rprog in
    let prog =
      if slice then fst (Slice.program ~wrt:[ Ring.mutex_ok r ] prog) else prog
    in
    ignore (Program.si prog);
    (Bdd.stats (Space.manager r.Ring.rspace)).Bdd.nodes_created
  in
  let full = allocated ~slice:false in
  let sliced = allocated ~slice:true in
  Alcotest.(check bool)
    (Printf.sprintf "sliced solve allocates fewer BDD nodes (%d < %d)" sliced full)
    true (sliced < full)

let test_deadcode_slice () =
  (* ghost writes only flag, which no x-property can observe *)
  let _, kbp = load "../examples/analysis/deadcode.unity" in
  let sp = Kbp.space kbp in
  let x = List.find (fun v -> Space.name v = "x") (Space.vars sp) in
  let wrt = Expr.compile_bool sp Expr.(var x === nat 0) in
  let _, info = Slice.kbp ~wrt:[ wrt ] kbp in
  Alcotest.(check (list string)) "ghost is dropped" [ "ghost" ] info.Slice.dropped;
  Alcotest.(check (list string)) "step and never are kept" [ "step"; "never" ]
    info.Slice.kept

(* ---- Rw granularity edge cases ------------------------------------------------ *)

let test_rw_guard_only_read () =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let y = Space.bool_var sp "y" in
  let s = Stmt.make ~name:"s" ~guard:Expr.(var x) [ (y, Expr.tru) ] in
  Alcotest.(check bool) "guard-only variables count as reads" true
    (V.mem (Space.idx x) (Rw.stmt_reads sp s));
  Alcotest.(check bool) "but not as writes" false
    (V.mem (Space.idx x) (Rw.stmt_writes s));
  let prog =
    Program.make sp ~name:"g" ~init:Expr.(not_ (var x) &&& not_ (var y)) [ s ]
  in
  Alcotest.(check bool) "the cone of y pulls in the guard variable" true
    (V.mem (Space.idx x) (Rw.program_cone prog (Rw.of_vars [ y ])))

let test_rw_self_assignment () =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let y = Space.bool_var sp "y" in
  let s = Stmt.make ~name:"s" ~guard:Expr.(var y) [ (x, Expr.var x) ] in
  Alcotest.(check bool) "x := x writes x" true (V.mem (Space.idx x) (Rw.stmt_writes s));
  Alcotest.(check bool) "and reads it" true (V.mem (Space.idx x) (Rw.stmt_reads sp s));
  (* the self-assignment keeps the statement inside x's cone, so its
     guard variable joins the cone as well *)
  let prog =
    Program.make sp ~name:"sa" ~init:Expr.(not_ (var x) &&& not_ (var y)) [ s ]
  in
  let cone = Rw.program_cone prog (Rw.of_vars [ x ]) in
  Alcotest.(check bool) "cone of x contains y" true (V.mem (Space.idx y) cone)

let test_rw_kguard_across_partition () =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let y = Space.bool_var sp "y" in
  let p0 = Process.make "P0" [ x ] in
  let p1 = Process.make "P1" [ y ] in
  (* the K-body reads y across the partition boundary: Rw must see the
     read even though y is not one of P0's variables *)
  let g = Kform.(k "P0" (base (Expr.var y)) &&. base (Expr.var x)) in
  Alcotest.(check bool) "kform_reads crosses the partition" true
    (V.mem (Space.idx y) (Rw.kform_reads g));
  Alcotest.(check bool) "and keeps the standard conjunct" true
    (V.mem (Space.idx x) (Rw.kform_reads g));
  let kbp =
    Kbp.make sp ~name:"xp"
      ~init:Expr.(not_ (var x) &&& not_ (var y))
      ~processes:[ p0; p1 ]
      [
        Kbp.kstmt ~name:"s0" ~guard:g [ (x, Expr.tru) ];
        Kbp.kstmt ~name:"s1" ~guard:(Kform.base (Expr.var x)) [ (y, Expr.tru) ];
      ]
  in
  let cone = Rw.kbp_cone kbp (Rw.of_vars [ x ]) in
  Alcotest.(check bool) "the kbp cone of x contains y" true (V.mem (Space.idx y) cone);
  let _, info = Slice.kbp kbp in
  Alcotest.(check bool) "conservative slice keeps everything" true
    (Slice.is_identity info)

(* ---- constructor error paths --------------------------------------------------- *)

let test_sub_program_rejects () =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let s = Stmt.make ~name:"s" [ (x, Expr.tru) ] in
  let prog = Program.make sp ~name:"p" ~init:Expr.(not_ (var x)) [ s ] in
  (try
     ignore (Program.sub_program prog []);
     Alcotest.fail "empty slice must be rejected"
   with Program.Ill_formed _ -> ());
  let foreign = Stmt.make ~name:"t" [ (x, Expr.fls) ] in
  (try
     ignore (Program.sub_program prog [ foreign ]);
     Alcotest.fail "foreign statements must be rejected"
   with Program.Ill_formed _ -> ());
  let same = Program.sub_program ~name:"q" prog (Program.statements prog) in
  Alcotest.(check string) "renamed full slice" "q" (Program.name same);
  Alcotest.(check int) "with the same statements" 1
    (List.length (Program.statements same))

let test_kbp_sub_rejects () =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let kbp =
    Kbp.make sp ~name:"k" ~init:Expr.(not_ (var x)) ~processes:[]
      [ Kbp.kstmt ~name:"s" ~guard:(Kform.base Expr.tru) [ (x, Expr.tru) ] ]
  in
  (try
     ignore (Kbp.sub kbp []);
     Alcotest.fail "empty slice must be rejected"
   with Kbp.Ill_formed _ -> ());
  let foreign = Kbp.kstmt ~name:"t" ~guard:(Kform.base Expr.tru) [ (x, Expr.fls) ] in
  (try
     ignore (Kbp.sub kbp [ foreign ]);
     Alcotest.fail "foreign statements must be rejected"
   with Kbp.Ill_formed _ -> ())

let suite =
  [
    Alcotest.test_case "check --slice byte-identical over the corpus" `Quick
      test_check_slice_identical;
    Alcotest.test_case "token_ring_8 is fully connected" `Quick
      test_token_ring_8_fully_connected;
    Alcotest.test_case "ring_mon property-less slice is the identity" `Quick
      test_ring_mon_surface_identity;
    Alcotest.test_case "monitored ring: monitors sliced away" `Quick
      test_monitored_ring_reduction;
    Alcotest.test_case "monitored ring: sliced solve allocates less" `Quick
      test_monitored_ring_fewer_nodes;
    Alcotest.test_case "deadcode: ghost is outside x's cone" `Quick test_deadcode_slice;
    Alcotest.test_case "rw: guard-only reads" `Quick test_rw_guard_only_read;
    Alcotest.test_case "rw: self-assignment x := x" `Quick test_rw_self_assignment;
    Alcotest.test_case "rw: K-guard reads across the partition" `Quick
      test_rw_kguard_across_partition;
    Alcotest.test_case "sub_program rejects bad slices" `Quick test_sub_program_rejects;
    Alcotest.test_case "Kbp.sub rejects bad slices" `Quick test_kbp_sub_rejects;
  ]

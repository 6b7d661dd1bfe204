open Kpt_predicate

let make_space () =
  let sp = Space.create () in
  let b = Space.bool_var sp "b" in
  let n = Space.nat_var sp "n" ~max:4 in
  let e = Space.enum_var sp "color" ~values:[| "red"; "green"; "blue" |] in
  (sp, b, n, e)

let test_declare () =
  let sp, b, n, e = make_space () in
  Alcotest.(check int) "three vars" 3 (List.length (Space.vars sp));
  Alcotest.(check string) "name" "n" (Space.name n);
  Alcotest.(check int) "bool card" 2 (Space.card b);
  Alcotest.(check int) "nat card" 5 (Space.card n);
  Alcotest.(check int) "enum card" 3 (Space.card e);
  Alcotest.(check int) "bool width" 1 (Space.width b);
  Alcotest.(check int) "nat width" 3 (Space.width n);
  Alcotest.(check int) "enum width" 2 (Space.width e);
  Alcotest.(check string) "enum value name" "green" (Space.value_name e 1);
  Alcotest.(check bool) "find" true (Space.idx (Space.find sp "color") = Space.idx e)

let test_duplicate () =
  let sp, _, _, _ = make_space () in
  Alcotest.check_raises "duplicate name" (Invalid_argument "Space: duplicate variable \"b\"")
    (fun () -> ignore (Space.bool_var sp "b"))

let test_bits_disjoint () =
  let sp, b, n, e = make_space () in
  let all = Space.all_current_bits sp @ List.concat_map Space.next_bits (Space.vars sp) in
  Alcotest.(check int) "no bit shared" (List.length all) (List.length (List.sort_uniq compare all));
  List.iter
    (fun v ->
      List.iter (fun bit -> Alcotest.(check int) "current bits even" 0 (bit land 1)) (Space.current_bits v);
      List.iter (fun bit -> Alcotest.(check int) "next bits odd" 1 (bit land 1)) (Space.next_bits v))
    [ b; n; e ]

let test_state_count_iter () =
  let sp, _, _, _ = make_space () in
  Alcotest.(check string) "state_count_exact" "30"
    (Bigcount.to_string (Space.state_count_exact sp));
  let count = ref 0 in
  Space.iter_states sp (fun _ -> incr count);
  Alcotest.(check int) "iter_states covers all" 30 !count

let test_singleton () =
  let sp, _, _, _ = make_space () in
  let st = [| 1; 3; 2 |] in
  let p = Space.pred_of_state sp st in
  Alcotest.(check int) "singleton has one state" 1 (Space.count_states_of sp p);
  Alcotest.(check bool) "holds at itself" true (Space.holds_at sp p st);
  Alcotest.(check bool) "not at another" false (Space.holds_at sp p [| 0; 3; 2 |])

let test_domain () =
  let sp, _, n, e = make_space () in
  let m = Space.manager sp in
  let d = Space.domain sp in
  (* Junk point: n = 7 (out of 0..4) must violate the domain. *)
  let junk = Bdd.and_ m d (Bitvec.eq_const m (Space.cur_vec sp n) 7) in
  Alcotest.(check bool) "out-of-range nat excluded" true (Bdd.is_false junk);
  let junk2 = Bdd.and_ m d (Bitvec.eq_const m (Space.cur_vec sp e) 3) in
  Alcotest.(check bool) "out-of-range enum excluded" true (Bdd.is_false junk2);
  Alcotest.(check (option int)) "domain has state_count states"
    (Bigcount.to_int (Space.state_count_exact sp))
    (Bigcount.to_int
       (Bigcount.shift_right (Bdd.sat_count_exact m ~nvars:(2 * (1 + 3 + 2)) d) (1 + 3 + 2)))

(* The law [Stmt.sp]/[wp] rely on: swapping a variable's pairs moves a
   current-bit predicate up by one onto its next bits ([rename (+1)]) and
   a next-bit one back down. *)
let test_swap_pairs_law () =
  let sp, _, n, _ = make_space () in
  let m = Space.manager sp in
  let p = Bitvec.eq_const m (Space.cur_vec sp n) 3 in
  let q = Bdd.swap_pairs m (Space.current_bits n) p in
  Alcotest.(check bool) "swap moves the predicate" false (Bdd.equal p q);
  Alcotest.(check bool) "current-only: rename +1" true
    (Bdd.equal q (Bdd.rename m (fun v -> v + 1) p));
  Alcotest.(check bool) "next_vec agrees" true
    (Bdd.equal q (Bitvec.eq_const m (Space.next_vec sp n) 3));
  let back = Bdd.swap_pairs m (Space.next_bits n) q in
  Alcotest.(check bool) "next-only: rename -1" true
    (Bdd.equal back (Bdd.rename m (fun v -> v - 1) q));
  Alcotest.(check bool) "roundtrip" true (Bdd.equal p back)

let test_states_of () =
  let sp, b, n, _ = make_space () in
  let m = Space.manager sp in
  let p =
    Bdd.and_ m
      (Bitvec.eq_const m (Space.cur_vec sp b) 1)
      (Bitvec.ge m (Space.cur_vec sp n) (Bitvec.const m ~width:3 3))
  in
  (* b=true, n∈{3,4}, color∈{0,1,2} → 6 states *)
  let sts = Space.states_of sp p in
  Alcotest.(check int) "states_of size" 6 (List.length sts);
  List.iter
    (fun st ->
      Alcotest.(check int) "b true" 1 st.(Space.idx b);
      Alcotest.(check bool) "n >= 3" true (st.(Space.idx n) >= 3))
    sts

let test_pp () =
  let sp, _, _, _ = make_space () in
  let st = [| 1; 2; 0 |] in
  let s = Format.asprintf "%a" (Space.pp_state sp) st in
  Alcotest.(check string) "pp_state" "⟨b=true n=2 color=red⟩" s

(* Printing a set of 2^60-odd states lists the first 100 and counts the
   rest, inside the request's deadline. *)
let test_pp_pred_capped () =
  Helpers.with_transmit3 ~width:30 ~knowledge:false @@ fun path ->
  let t0 = Unix.gettimeofday () in
  let code, out, _ =
    Helpers.run_kpt ~kill_after:20. [ "solve-file"; "--timeout"; "2"; path ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "solve-file exits 0" 0 code;
  Alcotest.(check bool) (Printf.sprintf "under 5 s (%.2fs)" elapsed) true (elapsed < 5.0);
  let si =
    List.find (String.starts_with ~prefix:"  SI = ") (String.split_on_char '\n' out)
  in
  (* a state prints with no comma inside it *)
  Alcotest.(check int) "100 states listed, then the rest" 101
    (List.length (String.split_on_char ',' si));
  Alcotest.(check bool) "then the count of the rest" true
    (String.ends_with ~suffix:", … (1441151880758558620 more)}" si)

(* At width 34 the counts pass [max_int]: every command that reports one
   prints it exactly, never clamped to [max_int] or wrapped to 0. *)
let test_counts_past_max_int () =
  Helpers.with_transmit3 ~width:34 ~knowledge:false @@ fun path ->
  let space = "37778931862957161709568" and reachable = "368934881474191032320" in
  List.iter
    (fun (args, want) ->
      let code, out, _ = Helpers.run_kpt ~kill_after:20. (List.hd args :: path :: List.tl args) in
      let cmd = String.concat " " args in
      Alcotest.(check int) (cmd ^ ": exit code") 0 code;
      List.iter
        (fun affix ->
          Alcotest.(check bool) (Printf.sprintf "%s prints %S" cmd affix) true
            (Helpers.contains ~affix out))
        want)
    [
      ([ "stats" ], [ "state space    : " ^ space; "reachable      : " ^ reachable ^ " states" ]);
      ([ "check" ], [ "72 var(s), " ^ reachable ^ " reachable state(s)" ]);
      ([ "check"; "--json" ], [ "\"state_space\": " ^ space; "\"reachable\": " ^ reachable ]);
      ( [ "parse" ],
        [ "state space : " ^ space ^ " states"; "reachable states: " ^ reachable ] );
      ( [ "knowledge"; "--process"; "Receiver"; "--fact"; "j = 3" ],
        [
          "fact holds at                73786976294838206464 of " ^ reachable;
          "K_Receiver(fact) holds at    73786976294838206464 of " ^ reachable;
        ] );
    ]

let suite =
  [
    Alcotest.test_case "declare" `Quick test_declare;
    Alcotest.test_case "duplicate name" `Quick test_duplicate;
    Alcotest.test_case "bit allocation" `Quick test_bits_disjoint;
    Alcotest.test_case "state_count/iter" `Quick test_state_count_iter;
    Alcotest.test_case "singleton predicates" `Quick test_singleton;
    Alcotest.test_case "domain constraint" `Quick test_domain;
    Alcotest.test_case "swap_pairs moves a variable" `Quick test_swap_pairs_law;
    Alcotest.test_case "states_of" `Quick test_states_of;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    Alcotest.test_case "pp_pred lists 100 states, counts the rest" `Quick
      test_pp_pred_capped;
    Alcotest.test_case "counts past max_int print exactly" `Quick test_counts_past_max_int;
  ]

(* The built-in-protocol surfaces through the real binary.

   - [kpt check <protocol>], [kpt solve MODEL] and [kpt verify] print the
     bytes of a golden that was produced before these commands moved
     into [Driver]; stdout and the exit code are pinned.
   - Every {!Kpt_protocols.Builtin} entry at n = 2, on each channel it
     has, reproduces the verdicts of [perfbench/expected/protocols.json]
     (reachable states, (34), (35)@0,1): the library table and the
     benchmark's own copy of it cannot drift apart. *)

(* ---- the CLI golden ------------------------------------------------------------ *)

let runs =
  List.map (fun p -> [ "check"; p ]) [ "standard"; "kbp"; "abp"; "stenning"; "auy"; "window" ]
  @ List.map (fun p -> [ "check"; p; "--lossy" ]) [ "standard"; "abp"; "stenning"; "window" ]
  @ List.map (fun m -> [ "solve"; m ]) [ "figure1"; "figure2"; "figure2-strong" ]
  @ [
      [
        "verify"; "../examples/specs/transmit.unity"; "--invariant"; "j > 0 => w[0] = x[0]";
        "--leadsto"; "true ; j = 2";
      ];
      [
        "verify"; "../examples/specs/transmit.unity"; "--invariant"; "j <= 2"; "--stable";
        "j = 2"; "--leadsto"; "true ; j = 2"; "--slice";
      ];
    ]

let shell_word s =
  let plain = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '/' -> true
    | _ -> false
  in
  if s <> "" && String.for_all plain s then s else Filename.quote s

(* Regenerate (from the test directory of a build, with the binary the
   golden should describe):
     for each run: printf '$ kpt %s\n' "ARGS"; kpt ARGS; printf '[exit %d]\n' $? *)
let render args =
  let code, out, _ = Helpers.run_kpt args in
  Printf.sprintf "$ kpt %s\n%s[exit %d]\n" (String.concat " " (List.map shell_word args)) out
    code

let test_cli_golden () =
  Alcotest.(check string) "check/solve/verify stdout and exit codes match the golden"
    (Helpers.slurp "golden/builtin_cli.txt")
    (String.concat "" (List.map render runs))

(* Parameters a built-in rejects are a usage error: one [error:] line
   naming the constraint, exit 2, nothing on stdout — never the exit-125
   trap an escaped [Invalid_argument] reaches. *)
let test_bad_params_are_usage_errors () =
  List.iter
    (fun (args, constraint_) ->
      let code, out, err = Helpers.run_kpt args in
      let cmd = String.concat " " args in
      Alcotest.(check int) (cmd ^ ": exit 2") 2 code;
      Alcotest.(check string) (cmd ^ ": no stdout") "" out;
      Alcotest.(check bool)
        (Printf.sprintf "%s: one error line naming %S (got %S)" cmd constraint_ err)
        true
        (String.starts_with ~prefix:"error: " err
        && String.index err '\n' = String.length err - 1
        && Helpers.contains ~affix:constraint_ err))
    [
      ([ "check"; "standard"; "--horizon"; "1" ], "horizon n must be ≥ 2");
      ([ "check"; "window"; "--horizon"; "1" ], "horizon n must be ≥ 2");
      ([ "check"; "auy"; "--alphabet"; "3" ], "power of two");
      ([ "check"; "stenning"; "--alphabet"; "1" ], "alphabet size a must be ≥ 2");
      ([ "simulate"; "--horizon"; "1" ], "horizon n must be ≥ 2");
      ([ "proof"; "standard"; "--horizon"; "1" ], "horizon n must be ≥ 2");
    ]

(* ---- the table against the benchmark's expectations ------------------------------ *)

let expected_file = "../perfbench/expected/protocols.json"

let expected name =
  let open Json in
  let entry =
    Option.bind (member "protocols" (of_string (Helpers.slurp expected_file))) (member name)
  in
  let field k conv = Option.bind (Option.bind entry (member k)) conv in
  match (field "reachable" to_int, field "safety" to_bool, field "liveness" to_list) with
  | Some reachable, Some safety, Some l -> (reachable, safety, List.filter_map to_bool l)
  | _ -> Alcotest.failf "%s: no well-formed entry for %s" expected_file name

let test_table_matches_perfbench () =
  let open Kpt_protocols in
  let programs = Helpers.section6_programs () in
  Alcotest.(check int) "ten configurations" 10 (List.length programs);
  List.iter
    (fun (name, (t : Builtin.instance)) ->
      let reachable, safety, liveness = expected name in
      Alcotest.(check int)
        (name ^ ": reachable states")
        reachable
        (Kpt_predicate.Space.count_states_of (Kpt_unity.Program.space t.prog)
           (Kpt_unity.Program.si t.prog));
      Alcotest.(check bool)
        (name ^ ": safety (34)")
        safety
        (Kpt_unity.Program.invariant t.prog (Builtin.safety t));
      Alcotest.(check (list bool))
        (name ^ ": liveness (35)@0,1")
        liveness
        (List.init 2 (fun k -> Builtin.liveness_holds t ~k)))
    programs

let suite =
  [
    Alcotest.test_case "check <protocol>, solve and verify golden" `Quick test_cli_golden;
    Alcotest.test_case "bad built-in parameters are usage errors (exit 2)" `Quick
      test_bad_params_are_usage_errors;
    Alcotest.test_case "table reproduces perfbench/expected/protocols.json" `Quick
      test_table_matches_perfbench;
  ]

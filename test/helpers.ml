(* Shared test utilities: deterministic RNG, qcheck registration, and small
   reference implementations that BDD results are checked against. *)

let rng () = Random.State.make [| 0xC0FFEE; 42 |]

(* The replay convention every seeded suite shares (proplaws, the gen
   corpus tests, difftest): a failure message ends with the exact
   environment line that reruns the identical sequence.  [extra] carries
   any further knobs ([KPT_PROP_CASES=…]) the suite wants pinned. *)
let replay_banner ?(extra = []) ~env_var ~seed () =
  let envs = (env_var, Kpt_gen.Rng.seed_to_string seed) :: extra in
  Printf.sprintf "replay with %s dune runtest"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) envs))

let qtests cases = List.map QCheck_alcotest.to_alcotest cases

let contains ~affix s =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  go 0

let slurp path = In_channel.with_open_bin path In_channel.input_all

let replace_all ~sub ~by s =
  let n = String.length sub and len = String.length s in
  let b = Buffer.create len in
  let rec go i =
    if i > len - n then Buffer.add_substring b s i (len - i)
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* examples/specs/transmit3.unity with both arrays widened from 3 to 30
   elements: 64 variables, and an SI of 1 441 151 880 758 558 720
   states that a BDD of 110 nodes holds.  With [~knowledge] the
   [deliver] guard also asks K[Receiver](j < 3), which makes the spec a
   KBP.  Written to a temporary file for [f]. *)
let with_transmit30 ~knowledge f =
  let src =
    slurp "../examples/specs/transmit3.unity"
    |> replace_all ~sub:"nat(1)[3]" ~by:"nat(1)[30]"
    |> if knowledge then
         replace_all ~sub:"if wire_idx = j" ~by:"if K[Receiver](j < 3) /\\ wire_idx = j"
       else Fun.id
  in
  let path = Filename.temp_file "kpt-transmit30" ".unity" in
  Out_channel.with_open_bin path (fun oc -> output_string oc src);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* The built CLI (a declared dependency of the test stanza), run to
   completion from the test directory: [(exit code, stdout, stderr)].
   With [~kill_after] (seconds) a run still going by then is killed, so a
   hang fails the test (exit 1000 + signal) instead of stalling it. *)
let kpt_exe = "../bin/kpt.exe"

let run_kpt ?kill_after args =
  let out = Filename.temp_file "kpt-cli" ".out" in
  let err = Filename.temp_file "kpt-cli" ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let ofd = open_w out and efd = open_w err in
  let pid =
    Unix.create_process kpt_exe (Array.of_list (kpt_exe :: args)) Unix.stdin ofd efd
  in
  Unix.close ofd;
  Unix.close efd;
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) kill_after in
  let rec wait () =
    match Unix.waitpid (if deadline = None then [] else [ Unix.WNOHANG ]) pid with
    | 0, _ ->
        if Unix.gettimeofday () > Option.get deadline then Unix.kill pid Sys.sigkill
        else Unix.sleepf 0.01;
        wait ()
    | _, status -> status
  in
  let code =
    match wait () with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 1000 + s
  in
  let result = (code, slurp out, slurp err) in
  Sys.remove out;
  Sys.remove err;
  result

(* Brute-force truth table of a BDD over variables [0..nvars-1], as the
   list of satisfying assignments encoded as integers (bit k of the code =
   value of variable k). *)
let truth_table bdd ~nvars =
  let sats = ref [] in
  for code = (1 lsl nvars) - 1 downto 0 do
    if Kpt_predicate.Bdd.eval bdd (fun i -> (code lsr i) land 1 = 1) then
      sats := code :: !sats
  done;
  !sats

(* The states of [p] by a filter over the whole space, in
   [Space.iter_states] order: the reference the symbolic walk of
   [Space.states_of] and [Space.first_state] is checked against (small
   spaces only). *)
let states_by_filter sp p =
  let acc = ref [] in
  Kpt_predicate.Space.iter_states sp (fun st ->
      if Kpt_predicate.Space.holds_at sp p st then acc := Array.copy st :: !acc);
  List.rev !acc

(* A random BDD built from random formulas, for property tests. *)
let rec random_formula st m ~nvars ~depth =
  let module B = Kpt_predicate.Bdd in
  if depth = 0 then
    match Random.State.int st 4 with
    | 0 -> B.tru m
    | 1 -> B.fls m
    | _ -> B.var m (Random.State.int st nvars)
  else
    let sub () = random_formula st m ~nvars ~depth:(depth - 1) in
    match Random.State.int st 6 with
    | 0 -> B.and_ m (sub ()) (sub ())
    | 1 -> B.or_ m (sub ()) (sub ())
    | 2 -> B.xor m (sub ()) (sub ())
    | 3 -> B.imp m (sub ()) (sub ())
    | 4 -> B.iff m (sub ()) (sub ())
    | _ -> B.not_ m (sub ())

(* The ten section-6 programs [kpt check <protocol> --horizon 2] runs:
   every built-in, a channel protocol once on the duplicating and once on
   the lossy channel ([NAME-dup], [NAME-lossy]), each built afresh. *)
let section6_programs () =
  let open Kpt_protocols in
  let params = { Seqtrans.n = 2; a = 2 } in
  List.concat_map
    (fun (b : Builtin.t) ->
      match b.build with
      | Builtin.No_channel build -> [ (b.name, build params) ]
      | Builtin.On_channel build ->
          [
            (b.name ^ "-dup", build Kpt_fault.Model.duplicating params);
            (b.name ^ "-lossy", build Kpt_fault.Model.lossy params);
          ])
    Builtin.all

(* ---- the shipped specs ---------------------------------------------------------- *)

(* Every [examples/specs/*.unity] and [examples/analysis/*.unity], as
   (label, source) pairs in a fixed order. *)
let shipped_specs () =
  List.concat_map
    (fun dir ->
      Sys.readdir ("../" ^ dir) |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".unity")
      |> List.sort compare
      |> List.map (fun n -> (dir ^ "/" ^ n, slurp ("../" ^ dir ^ "/" ^ n))))
    [ "examples/specs"; "examples/analysis" ]

(* ---- the malformed-spec table ------------------------------------------------ *)

(* [examples/malformed/*.unity]: one source per way a spec can fail to
   load (lexing, parsing, elaboration), plus [non_total.unity], which
   loads but which the solver rejects. *)
let malformed_specs () =
  Sys.readdir "../examples/malformed" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".unity")
  |> List.sort compare
  |> List.map (fun n -> ("examples/malformed/" ^ n, slurp ("../examples/malformed/" ^ n)))

(* Every file-consuming command on one fixture, as (label, command,
   options, sources); [stats] also runs with a valid second file, under
   [--json] so its profile carries no wall-clock timings. *)
let malformed_runs spec =
  let d = Kpt_analysis.Driver.default_options in
  let transmit = ("examples/specs/transmit.unity", slurp "../examples/specs/transmit.unity") in
  Kpt_serve.Protocol.
    [
      ("check", Check, d, [ spec ]);
      ("lint", Lint, d, [ spec ]);
      ("lint --semantic", Lint, { d with semantic = true }, [ spec ]);
      ("stats --json", Stats, { d with json = true }, [ spec ]);
      ("stats --json (two files)", Stats, { d with json = true }, [ spec; transmit ]);
      ("solve-file", Solve, d, [ spec ]);
      ("slice", Slice, d, [ spec ]);
    ]

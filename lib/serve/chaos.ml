(* Chaos harness: replay a generated-corpus slice against a *real*
   daemon process through injected transport faults, and assert the
   serving layer's three invariants:

   1. the daemon never crashes or wedges — after every fault it still
      answers a ping and serves a healthy request;
   2. every surviving client gets either a byte-identical result or a
      structured, well-formed error frame — never garbage;
   3. the socket path is always reclaimed: unlinked on clean exits,
      rebindable after a SIGKILL leaves it stale.

   The harness is deliberately a *client-side* adversary: it speaks to
   the daemon over the same Unix socket any client would, reading
   replies through [Client] and writing raw bytes through its fds so it
   can truncate frames, dribble bytes, slam connections shut and flood
   the queue — the faults a production deployment actually
   meets, the same spirit as the paper's lossy-channel protocols. *)

open Kpt_analysis

type fault =
  | Truncate  (** send a prefix of a request frame, then hang up *)
  | Garbage  (** send undecodable bytes where a request belongs *)
  | Partial_write  (** deliver a valid request in dribbled chunks *)
  | Disconnect  (** send a full request, close before the reply *)
  | Slow_loris  (** drip bytes forever, never completing a line *)
  | Flood  (** hold every worker, overflow the queue, expect sheds *)
  | Kill  (** SIGKILL the daemon mid-request; restart over the stale socket *)
  | Drain  (** SIGTERM: graceful drain, exit 130, socket unlinked *)

let all_faults =
  [ Truncate; Garbage; Partial_write; Disconnect; Slow_loris; Flood; Kill; Drain ]

let fault_name = function
  | Truncate -> "truncate"
  | Garbage -> "garbage"
  | Partial_write -> "partial-write"
  | Disconnect -> "disconnect"
  | Slow_loris -> "slow-loris"
  | Flood -> "flood"
  | Kill -> "kill"
  | Drain -> "drain"

let fault_of_name = function
  | "truncate" -> Some Truncate
  | "garbage" -> Some Garbage
  | "partial-write" -> Some Partial_write
  | "disconnect" -> Some Disconnect
  | "slow-loris" -> Some Slow_loris
  | "flood" -> Some Flood
  | "kill" -> Some Kill
  | "drain" -> Some Drain
  | _ -> None

type config = {
  exe : string;
  dir : string;
  specs : int;
  seed : int64;
  socket : string;
  jobs : int;
  queue : int;
  request_timeout : float;
  faults : fault list;
}

(* Deterministic, machine-independent budget for every replayed spec:
   fuel and nodes only, so heavy corpus instances answer exit 3 the same
   way everywhere instead of hanging the sweep. *)
let chaos_limits =
  Kpt_predicate.Budget.limits ~fuel:5_000 ~max_nodes:500_000 ()

type t = {
  cfg : config;
  fmt : Format.formatter;
  rng : Kpt_gen.Rng.t;
  mutable daemon : int option;  (* pid *)
  mutable violations : string list;
  mutable checks : int;
  expected : (string, Driver.outcome) Hashtbl.t;
}

let violation t fmt =
  Printf.ksprintf
    (fun msg ->
      t.violations <- msg :: t.violations;
      Format.fprintf t.fmt "chaos: VIOLATION: %s@." msg)
    fmt

(* ---- corpus ---------------------------------------------------------------- *)

let load_specs cfg =
  let entries = try Sys.readdir cfg.dir with Sys_error _ -> [||] in
  let unity =
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".unity")
    |> List.sort String.compare
  in
  let take n l =
    let rec go n = function
      | x :: rest when n > 0 -> x :: go (n - 1) rest
      | _ -> []
    in
    go n l
  in
  take cfg.specs unity
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat cfg.dir f) In_channel.input_all))

let req_of_spec id (name, src) =
  {
    Protocol.id;
    cmd = Protocol.Check;
    files = [ (name, src) ];
    opts = { Driver.default_options with Driver.limits = chaos_limits };
  }

let request_line spec =
  Json.to_string (Protocol.request_to_json (req_of_spec 1 spec))

(* What the daemon must serve, byte for byte: the same driver, the same
   options, computed in-process once per spec. *)
let expected t ((name, _) as spec) =
  match Hashtbl.find_opt t.expected name with
  | Some o -> o
  | None ->
      let req = req_of_spec 1 spec in
      let o = Handler.dispatch req.Protocol.cmd req.Protocol.opts req.Protocol.files in
      Hashtbl.replace t.expected name o;
      o

(* ---- plumbing ------------------------------------------------------------ *)

(* Connections are [Client]'s, so replies are read by the wire's one
   frame reader; the adversarial writes go raw through [Client.fd]. *)
let raw_write c s = try Protocol.write_all (Client.fd c) s with Unix.Unix_error _ -> ()

(* Every wait for a reply is bounded, so a wedged daemon becomes a
   violation, not a hung sweep. *)
let read_reply c =
  Result.map_error Client.read_error_to_string (Client.read_response ~timeout:30. c)

(* One request line, one reply over a fresh connection, skipping event
   frames. *)
let exchange socket line =
  match Client.connect ~socket with
  | Error e -> Error (Printf.sprintf "connect: %s" e)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.send_line c line with
          | () -> read_reply c
          | exception Unix.Unix_error _ -> Error "send failed (connection closed)")

(* ---- invariant checks ------------------------------------------------------ *)

let ping_alive t ~tag =
  t.checks <- t.checks + 1;
  let ping =
    Json.to_string
      (Protocol.request_to_json
         {
           Protocol.id = 99;
           cmd = Protocol.Ping;
           files = [];
           opts = Driver.default_options;
         })
  in
  match exchange t.cfg.socket ping with
  | Ok (Protocol.Result { exit_code = 0; daemon; _ }) when daemon <> [] -> true
  | Ok _ -> violation t "%s: ping answered with an unexpected frame" tag; false
  | Error e -> violation t "%s: daemon unresponsive to ping (%s)" tag e; false

(* A served answer to [spec]: the direct run's bytes, or the budget's
   exit 3 — never an error frame. *)
let check_reply t ~tag spec = function
  | Error e -> violation t "%s: request on %s failed: %s" tag (fst spec) e
  | Ok (Protocol.Error_frame { message; _ }) ->
      violation t "%s: request on %s got an error frame: %s" tag (fst spec) message
  | Ok (Protocol.Event _) -> assert false (* read_response consumes events *)
  | Ok (Protocol.Result { exit_code; out; err; _ }) ->
      if exit_code = 0 || exit_code = 1 then begin
        let e = expected t spec in
        if not (e.Driver.code = exit_code && e.Driver.out = out && e.Driver.err = err)
        then
          violation t "%s: served bytes for %s differ from direct execution" tag
            (fst spec)
      end
      else if exit_code <> 3 then
        violation t "%s: %s answered with unexpected exit %d" tag (fst spec)
          exit_code

let healthy t ~tag spec =
  t.checks <- t.checks + 1;
  check_reply t ~tag spec (exchange t.cfg.socket (request_line spec))

(* ---- daemon lifecycle ------------------------------------------------------ *)

let wait_for_socket ?(timeout = 10.) path =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Client.connect ~socket:path with
    | Ok c ->
        Client.close c;
        true
    | Error _ ->
        if Unix.gettimeofday () > deadline then false
        else begin
          Unix.sleepf 0.02;
          go ()
        end
  in
  go ()

let start_daemon t =
  match t.daemon with
  | Some _ -> ()
  | None ->
      let cfg = t.cfg in
      let args =
        [|
          cfg.exe; "serve";
          "--socket"; cfg.socket;
          "--cache-size"; "128";
          "--serve-jobs"; string_of_int cfg.jobs;
          "--queue"; string_of_int cfg.queue;
          "--request-timeout"; string_of_float cfg.request_timeout;
        |]
      in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
      let pid = Unix.create_process cfg.exe args Unix.stdin null null in
      Unix.close null;
      if not (wait_for_socket cfg.socket) then begin
        violation t "daemon did not come up on %s within 10s" cfg.socket;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
      end
      else t.daemon <- Some pid

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Wire shutdown; asserts exit 0 and a reclaimed socket. *)
let stop_daemon t =
  match t.daemon with
  | None -> ()
  | Some pid ->
      t.daemon <- None;
      let line =
        Json.to_string
          (Protocol.request_to_json
             {
               Protocol.id = 0;
               cmd = Protocol.Shutdown;
               files = [];
               opts = Driver.default_options;
             })
      in
      (match exchange t.cfg.socket line with
      | Ok (Protocol.Result { exit_code = 0; _ }) -> ()
      | Ok _ | Error _ ->
          (* failing to answer the shutdown nicely is itself a violation;
             make sure the process dies regardless *)
          violation t "shutdown request was not answered cleanly";
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
      let _, status = waitpid_retry pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> violation t "daemon exited %d on shutdown (want 0)" n
      | Unix.WSIGNALED s -> violation t "daemon died on signal %d during shutdown" s
      | Unix.WSTOPPED _ -> violation t "daemon stopped instead of exiting");
      if Sys.file_exists t.cfg.socket then
        violation t "socket %s not reclaimed after shutdown" t.cfg.socket

let kill_daemon t =
  match t.daemon with
  | None -> ()
  | Some pid ->
      t.daemon <- None;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry pid)

(* ---- fault scenarios ------------------------------------------------------- *)

let garbage_line rng =
  match Kpt_gen.Rng.int rng 4 with
  | 0 -> "this is not json"
  | 1 -> "{\"v\":\"one\",\"cmd\":42}"
  | 2 -> "{\"v\":1,\"cmd\":\"check\",\"files\":\"nope\"}"
  | _ ->
      String.init (16 + Kpt_gen.Rng.int rng 64) (fun _ ->
          Char.chr (33 + Kpt_gen.Rng.int rng 90))

let scenario_truncate t specs =
  List.iter
    (fun spec ->
      t.checks <- t.checks + 1;
      (match Client.connect ~socket:t.cfg.socket with
      | Error e -> violation t "truncate: connect failed: %s" e
      | Ok c ->
          let line = request_line spec in
          let k = 1 + Kpt_gen.Rng.int t.rng (String.length line - 1) in
          raw_write c (String.sub line 0 k);
          Client.close c);
      healthy t ~tag:"truncate" spec)
    specs

let scenario_garbage t specs =
  List.iter
    (fun spec ->
      t.checks <- t.checks + 1;
      (match exchange t.cfg.socket (garbage_line t.rng) with
      | Ok (Protocol.Error_frame { exit_code = 2; _ }) -> ()
      | Ok _ -> violation t "garbage: expected a structured exit-2 error frame"
      | Error e -> violation t "garbage: %s" e);
      healthy t ~tag:"garbage" spec)
    specs

(* A valid request delivered in dribbled chunks must still produce the
   byte-identical answer — the reassembly path under test is the
   server's deadline reader. *)
let scenario_partial_write t specs =
  List.iter
    (fun spec ->
      t.checks <- t.checks + 1;
      match Client.connect ~socket:t.cfg.socket with
      | Error e -> violation t "partial-write: connect failed: %s" e
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let line = request_line spec ^ "\n" in
              let len = String.length line in
              let chunk = max 64 (len / 16) in
              let sent = ref true in
              let off = ref 0 in
              while !sent && !off < len do
                let n = min chunk (len - !off) in
                (match Protocol.write_all (Client.fd c) (String.sub line !off n) with
                | () -> off := !off + n
                | exception Unix.Unix_error _ -> sent := false);
                Unix.sleepf 0.001
              done;
              if not !sent then
                violation t "partial-write: daemon dropped a live connection mid-send"
              else check_reply t ~tag:"partial-write" spec (read_reply c)))
    specs

let scenario_disconnect t specs =
  List.iter
    (fun spec ->
      t.checks <- t.checks + 1;
      (match Client.connect ~socket:t.cfg.socket with
      | Error e -> violation t "disconnect: connect failed: %s" e
      | Ok c ->
          raw_write c (request_line spec ^ "\n");
          (* hang up before the daemon can possibly have answered *)
          Client.close c);
      healthy t ~tag:"disconnect" spec)
    specs

let scenario_slow_loris t specs =
  let timeout = t.cfg.request_timeout in
  let budget = (3. *. timeout) +. 2. in
  List.iter
    (fun spec ->
      t.checks <- t.checks + 1;
      (match Client.connect ~socket:t.cfg.socket with
      | Error e -> violation t "slow-loris: connect failed: %s" e
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              let cut = ref false in
              let drip = min 0.1 (timeout /. 5.) in
              while (not !cut) && Unix.gettimeofday () -. t0 < budget do
                (* drip one byte of a request that never completes *)
                (match Protocol.write_all (Client.fd c) "{" with
                | () -> ()
                | exception Unix.Unix_error _ -> cut := true);
                (match Unix.select [ Client.fd c ] [] [] 0. with
                | [ _ ], _, _ -> (
                    (* the daemon spoke (deadline frame) or hung up *)
                    cut := true;
                    match Client.read_response ~timeout:1. c with
                    | Ok (Protocol.Error_frame { kind = Protocol.Timeout; _ })
                    | Error (Client.Closed | Client.Cut _ | Client.Timed_out) ->
                        ()
                    | Ok _ -> violation t "slow-loris: expected a timeout error frame"
                    | Error (Client.Malformed msg) ->
                        violation t "slow-loris: malformed frame: %s" msg)
                | _ -> ()
                | exception Unix.Unix_error _ -> cut := true);
                if not !cut then Unix.sleepf drip
              done;
              if not !cut then
                violation t
                  "slow-loris: client still connected after %.1fs (deadline %gs)"
                  budget timeout));
      healthy t ~tag:"slow-loris" spec)
    specs

(* Hold every worker with silent connections, fill the queue, and demand
   that the surplus is shed promptly with structured overloaded frames —
   not parked in the backlog. *)
let scenario_flood t specs =
  t.checks <- t.checks + 1;
  (* The request deadline also covers silent connections, so the whole
     round — hold the workers, fill the queue, probe the surplus — must
     land inside the daemon's request_timeout window.  On a loaded box
     the timing can slip (a holder gets deadline-cut, a worker frees up,
     and a surplus probe sees a timeout frame instead of a shed), which
     is a miss but not a protocol violation; retry a few rounds and only
     report a violation when no round sheds the full surplus. *)
  let surplus = 5 in
  let hard = ref None in
  let note_hard msg = if !hard = None then hard := Some msg in
  let round () =
    let connect_n n =
      List.init n (fun _ ->
          Result.to_option (Client.connect ~socket:t.cfg.socket))
      |> List.filter_map Fun.id
    in
    let holders = connect_n t.cfg.jobs in
    (* give the workers a moment to pick the holders up *)
    Unix.sleepf 0.1;
    let queued = connect_n t.cfg.queue in
    Unix.sleepf 0.05;
    let sheds = ref 0 in
    for _ = 1 to surplus do
      match Client.connect ~socket:t.cfg.socket with
      | Error e -> note_hard (Printf.sprintf "flood: connect failed: %s" e)
      | Ok c -> (
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.read_response ~timeout:5. c with
              | Error (Client.Closed | Client.Cut _ | Client.Timed_out) ->
                  note_hard "flood: surplus connection got no frame at all"
              | Ok (Protocol.Error_frame { kind = Protocol.Overloaded; exit_code; _ }) ->
                  if exit_code <> Protocol.exit_overloaded then
                    note_hard
                      (Printf.sprintf "flood: overloaded frame carries exit %d (want %d)"
                         exit_code Protocol.exit_overloaded)
                  else incr sheds
              | Ok _ ->
                  (* a worker freed up mid-round and the probe got a
                     deadline frame (or was served) — timing miss *)
                  ()
              | Error (Client.Malformed msg) ->
                  note_hard (Printf.sprintf "flood: malformed shed frame: %s" msg)))
    done;
    List.iter Client.close queued;
    List.iter Client.close holders;
    !sheds
  in
  let rec attempt n =
    let sheds = round () in
    if !hard = None && sheds < surplus then
      if n > 1 then (
        (* let the daemon's backlog drain before trying again *)
        Unix.sleepf (t.cfg.request_timeout +. 0.2);
        attempt (n - 1))
      else
        violation t "flood: only %d of %d surplus connections were shed"
          sheds surplus
  in
  attempt 4;
  (match !hard with Some msg -> violation t "%s" msg | None -> ());
  (* the daemon must come back to life once the flood recedes *)
  Unix.sleepf 0.2;
  (match specs with s :: _ -> healthy t ~tag:"flood" s | [] -> ());
  ignore (ping_alive t ~tag:"flood")

(* After the daemon dies under a client, the client sees silence, a
   frame the death cut short, or a whole well-formed frame — never a
   whole line that decodes to garbage. *)
let silence_or_frame t ~tag c =
  (match Client.read_response ~timeout:2. c with
  | Ok _ | Error (Client.Closed | Client.Cut _ | Client.Timed_out) -> ()
  | Error (Client.Malformed msg) -> violation t "%s: malformed frame: %s" tag msg);
  Client.close c

let scenario_kill t specs =
  match (t.daemon, specs) with
  | Some pid, spec :: _ ->
      t.checks <- t.checks + 1;
      (match Client.connect ~socket:t.cfg.socket with
      | Error e -> violation t "kill: connect failed: %s" e
      | Ok c ->
          raw_write c (request_line spec ^ "\n");
          Unix.sleepf 0.02;
          t.daemon <- None;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_retry pid);
          silence_or_frame t ~tag:"kill" c);
      if not (Sys.file_exists t.cfg.socket) then
        violation t "kill: SIGKILL should leave the socket file stale on disk";
      (* the restart must reclaim the stale socket *)
      start_daemon t;
      if t.daemon = None then violation t "kill: daemon failed to restart over the stale socket"
      else begin
        healthy t ~tag:"kill-restart" spec;
        ignore (ping_alive t ~tag:"kill-restart")
      end
  | _ -> ()

let scenario_drain t specs =
  match t.daemon with
  | None -> ()
  | Some pid -> (
      t.checks <- t.checks + 1;
      (* park one idle connection; the drain must wake it with EOF *)
      let idle = Result.to_option (Client.connect ~socket:t.cfg.socket) in
      Unix.sleepf 0.1;
      t.daemon <- None;
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      let _, status = waitpid_retry pid in
      (match status with
      | Unix.WEXITED 130 -> ()
      | Unix.WEXITED n -> violation t "drain: daemon exited %d on SIGTERM (want 130)" n
      | Unix.WSIGNALED s -> violation t "drain: daemon died on signal %d" s
      | Unix.WSTOPPED _ -> violation t "drain: daemon stopped instead of exiting");
      (* EOF is the documented answer: the drain hung us up *)
      Option.iter (silence_or_frame t ~tag:"drain") idle;
      if Sys.file_exists t.cfg.socket then
        violation t "drain: socket %s not unlinked by the drain" t.cfg.socket;
      (* bring the daemon back for whatever scenario follows *)
      start_daemon t;
      match specs with
      | s :: _ when t.daemon <> None -> healthy t ~tag:"drain-restart" s
      | _ -> ())

(* ---- in-process noise (the bench's chaos leg) ------------------------------ *)

let noise ~socket ~seed ~rounds =
  let rng = Kpt_gen.Rng.make seed in
  let injected = ref 0 in
  for _ = 1 to rounds do
    match Client.connect ~socket with
    | Error _ -> ()
    | Ok c ->
        incr injected;
        (match Kpt_gen.Rng.int rng 3 with
        | 0 -> raw_write c "{\"v\":1,\"cmd\":\"che"
        | 1 -> raw_write c (garbage_line rng ^ "\n")
        | _ -> () (* connect and slam shut *));
        Client.close c
  done;
  !injected

(* ---- the sweep ------------------------------------------------------------- *)

let run fmt cfg =
  (* writes into freshly-closed sockets must surface as EPIPE, not kill
     the chaos process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let specs = load_specs cfg in
  if specs = [] then begin
    Format.fprintf fmt "error: no .unity specs under %s@." cfg.dir;
    2
  end
  else begin
    let t =
      {
        cfg;
        fmt;
        rng = Kpt_gen.Rng.make cfg.seed;
        daemon = None;
        violations = [];
        checks = 0;
        expected = Hashtbl.create 64;
      }
    in
    Format.fprintf fmt
      "chaos: %d spec(s) from %s, %d fault kind(s), daemon %s (jobs %d, queue %d, deadline %gs)@."
      (List.length specs) cfg.dir (List.length cfg.faults) cfg.socket cfg.jobs
      cfg.queue cfg.request_timeout;
    Fun.protect
      ~finally:(fun () -> kill_daemon t)
      (fun () ->
        start_daemon t;
        if t.daemon = None then ()
        else
          List.iter
            (fun fault ->
              let before = List.length t.violations in
              (match fault with
              | Truncate -> scenario_truncate t specs
              | Garbage -> scenario_garbage t specs
              | Partial_write -> scenario_partial_write t specs
              | Disconnect -> scenario_disconnect t specs
              | Slow_loris ->
                  (* each iteration costs ~3x the deadline; a small slice
                     of the corpus exercises the path fully *)
                  let rec take n = function
                    | x :: rest when n > 0 -> x :: take (n - 1) rest
                    | _ -> []
                  in
                  scenario_slow_loris t (take 2 specs)
              | Flood -> scenario_flood t specs
              | Kill -> scenario_kill t specs
              | Drain -> scenario_drain t specs);
              ignore (ping_alive t ~tag:(fault_name fault));
              Format.fprintf fmt "chaos: fault=%s %s@." (fault_name fault)
                (if List.length t.violations = before then "ok"
                 else
                   Printf.sprintf "FAILED (%d violation(s))"
                     (List.length t.violations - before)))
            cfg.faults;
        stop_daemon t);
    let nv = List.length t.violations in
    Format.fprintf fmt
      "chaos: %d fault kind(s) x %d spec(s), %d client check(s), %d violation(s)@."
      (List.length cfg.faults) (List.length specs) t.checks nv;
    if nv = 0 then 0 else 1
  end

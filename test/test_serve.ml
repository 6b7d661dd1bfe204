(* The serve daemon, end to end over a real Unix socket.

   The load-bearing properties pinned here:
   - a served answer — text and JSON — is byte-identical to the direct
     driver's, cold, warm, and from the cache, over the whole examples
     corpus;
   - the result cache is content-addressed: an edited source byte or a
     changed output-affecting option misses, while [jobs] (excluded from
     the key by the batch driver's determinism contract) hits;
   - warm engines carry no stale per-request state: a fuel-starved
     request exits 3 (and is not cached), and the very next request on
     the same daemon succeeds with the same bytes a fresh process would
     produce;
   - a malformed line gets a structured error frame and the connection
     survives for the next request;
   - [--trace] streams event frames over the wire before the result, and
     a cache hit streams none;
   - shutdown removes the socket; a stale socket file is reclaimed on
     startup; a live one refuses a second daemon; concurrent clients see
     the same bytes as sequential ones;
   - under overload the daemon sheds with the structured [overloaded]
     frame (exit 75); a slow-loris client is cut at the absolute
     deadline with the [timeout] frame (exit 4); a doctored protocol
     version gets the [version_mismatch] frame naming both versions; a
     client vanishing mid-request leaves the daemon serving; [write_all]
     survives short writes byte-for-byte; the retry schedule is bounded,
     deterministic under a pinned seed, and resends only what never
     demonstrably ran; the ping health fields are pinned by a golden
     file; and a mini chaos sweep against a real spawned daemon holds
     every invariant;
   - through the real binary, [kpt CMD --socket S] prints the same
     stdout, stderr and exit code as [kpt CMD] for every Driver-backed
     command; an unreachable [--socket] exits 2 naming [kpt serve], and
     [--serve-auto] with no daemon gives the direct bytes;
   - every malformed spec under examples/malformed gets a result frame
     byte-identical to the direct run on every file command — never a
     dropped connection. *)

module Server = Kpt_serve.Server
module Client = Kpt_serve.Client
module Protocol = Kpt_serve.Protocol
module Driver = Kpt_analysis.Driver

(* ---- corpus (same shape as test_par) ---------------------------------------- *)

let read_file = Helpers.slurp

let corpus () =
  Sys.readdir "../examples/specs" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".unity")
  |> List.sort compare
  |> List.map (fun n -> ("examples/specs/" ^ n, read_file ("../examples/specs/" ^ n)))

let mk_req ?(id = 1) ?(opts = Driver.default_options) cmd files =
  { Protocol.id; cmd; files; opts }

(* [Protocol.response] carries inline records; flatten the final frame
   into a plain one the assertions can pass around. *)
type reply = {
  exit_code : int;
  cached : bool;
  out : string;
  err : string;
  daemon : (string * int) list;
}

let result_exn = function
  | Ok (Protocol.Result { exit_code; cached; out; err; daemon; _ }) ->
      { exit_code; cached; out; err; daemon }
  | Ok (Protocol.Error_frame { message; _ }) ->
      Alcotest.failf "unexpected error frame: %s" message
  | Ok (Protocol.Event _) -> Alcotest.fail "event frame leaked past read_response"
  | Error msg -> Alcotest.failf "transport error: %s" msg

let check_outcome name (direct : Driver.outcome) (r : reply) ~cached =
  Alcotest.(check int) (name ^ ": exit code") direct.Driver.code r.exit_code;
  Alcotest.(check string) (name ^ ": stdout bytes") direct.Driver.out r.out;
  Alcotest.(check string) (name ^ ": stderr bytes") direct.Driver.err r.err;
  Alcotest.(check bool) (name ^ ": cached flag") cached r.cached

(* ---- running a daemon inside the test process -------------------------------- *)

let socket_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "kpt-test-%d-%s.sock" (Unix.getpid ()) tag)

let wait_for_socket path =
  let rec loop n =
    if n = 0 then Alcotest.failf "daemon never bound %s" path
    else
      match Client.connect ~socket:path with
      | Ok c -> Client.close c
      | Error _ ->
          Unix.sleepf 0.02;
          loop (n - 1)
  in
  loop 250

(* Spawn the daemon on its own domain, run [f socket], then shut it down
   through the wire and join.  The join doubles as the exit-code check:
   a clean shutdown must return 0 and remove the socket file. *)
let with_server ~tag ?(cache_size = 8) ?(jobs = 1) ?(queue = 64) ?request_timeout f =
  let socket = socket_path tag in
  if Sys.file_exists socket then Sys.remove socket;
  let cfg =
    Server.config ~jobs ~queue_capacity:queue ?request_timeout ~socket_path:socket
      ~cache_size ()
  in
  let daemon = Domain.spawn (fun () -> Server.run ~announce:false cfg) in
  wait_for_socket socket;
  let result = try Ok (f socket) with e -> Error e in
  (* the shutdown request itself can be shed if a test left the daemon
     saturated for a moment (e.g. the overload scenario), so retry until
     the daemon actually acknowledges with a result frame *)
  let rec shutdown_daemon n =
    match Client.roundtrip ~socket (mk_req Protocol.Shutdown []) with
    | Ok (Protocol.Result _) -> ()
    | (Ok _ | Error _) when n > 0 ->
        Unix.sleepf 0.1;
        shutdown_daemon (n - 1)
    | Ok _ | Error _ -> ()
  in
  shutdown_daemon 50;
  let code = Domain.join daemon in
  Alcotest.(check int) "daemon exits 0 on shutdown" 0 code;
  Alcotest.(check bool) "socket removed on exit" false (Sys.file_exists socket);
  match result with Ok v -> v | Error e -> raise e

(* ---- byte identity: cold vs warm vs cached ----------------------------------- *)

let test_check_byte_identity () =
  let sources = corpus () in
  let json_opts = { Driver.default_options with Driver.json = true } in
  let direct_text = Driver.check Driver.default_options sources in
  let direct_json = Driver.check json_opts sources in
  with_server ~tag:"identity" @@ fun socket ->
  let round ?opts id =
    result_exn (Client.roundtrip ~socket (mk_req ~id ?opts Protocol.Check sources))
  in
  (* cold daemon: the first request misses the cache *)
  check_outcome "warm/1st (text)" direct_text (round 1) ~cached:false;
  (* warm daemon, identical request: served from the cache *)
  check_outcome "cached/2nd (text)" direct_text (round 2) ~cached:true;
  check_outcome "cached/3rd (text)" direct_text (round 3) ~cached:true;
  check_outcome "warm (json)" direct_json (round ~opts:json_opts 4) ~cached:false;
  check_outcome "cached (json)" direct_json (round ~opts:json_opts 5) ~cached:true

(* ---- the cache key ----------------------------------------------------------- *)

let test_cache_key_content_addressed () =
  let file = "examples/specs/transmit.unity" in
  let src = read_file "../examples/specs/transmit.unity" in
  with_server ~tag:"cachekey" @@ fun socket ->
  let send ?(opts = Driver.default_options) files =
    result_exn (Client.roundtrip ~socket (mk_req ~opts Protocol.Check files))
  in
  Alcotest.(check bool) "first request misses" false (send [ (file, src) ]).cached;
  Alcotest.(check bool) "identical request hits" true (send [ (file, src) ]).cached;
  (* one changed source byte is a different address *)
  Alcotest.(check bool) "edited source misses" false
    (send [ (file, src ^ "\n") ]).cached;
  (* an output-affecting option is part of the key *)
  Alcotest.(check bool) "changed option misses" false
    (send ~opts:{ Driver.default_options with Driver.quiet = true } [ (file, src) ])
      .cached;
  (* [jobs] is excluded: the batch driver's output is pool-size-independent *)
  Alcotest.(check bool) "jobs is not part of the key" true
    (send ~opts:{ Driver.default_options with Driver.jobs = Some 4 } [ (file, src) ])
      .cached

(* ---- warm engines carry no stale request state (the lifecycle bugfix) -------- *)

let test_budget_exhaustion_not_sticky () =
  let sources =
    [ ("examples/specs/transmit.unity", read_file "../examples/specs/transmit.unity") ]
  in
  let starved =
    {
      Driver.default_options with
      Driver.limits = Kpt_predicate.Budget.limits ~fuel:1 ();
    }
  in
  let direct_ok = Driver.check Driver.default_options sources in
  with_server ~tag:"budget" @@ fun socket ->
  let send opts =
    result_exn (Client.roundtrip ~socket (mk_req ~opts Protocol.Check sources))
  in
  let r1 = send starved in
  Alcotest.(check int) "fuel-starved request exits 3" 3 r1.exit_code;
  Alcotest.(check bool) "and is not cached (budget-dependent)" false r1.cached;
  (* the very next request on the same warm daemon: no armed budget, no
     leftover counters — the same bytes a fresh process produces *)
  let r2 = send Driver.default_options in
  Alcotest.(check int) "next request succeeds" direct_ok.Driver.code r2.exit_code;
  Alcotest.(check string) "with clean bytes" direct_ok.Driver.out r2.out;
  Alcotest.(check bool) "fresh even though a starved twin ran first" false r2.cached;
  (* exit-3 outcomes never enter the cache: repeating re-runs and re-exhausts *)
  let r3 = send starved in
  Alcotest.(check int) "starved again exits 3 again" 3 r3.exit_code;
  Alcotest.(check bool) "still uncached" false r3.cached

(* ---- protocol robustness ------------------------------------------------------ *)

let test_malformed_then_valid_on_same_connection () =
  with_server ~tag:"malformed" @@ fun socket ->
  match Client.connect ~socket with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c)
      @@ fun () ->
      Client.send_line c "this is not json";
      (match Client.read_response c with
      | Ok (Protocol.Error_frame { exit_code; message; _ }) ->
          Alcotest.(check int) "malformed line exits 2" 2 exit_code;
          Alcotest.(check bool) "and says so" true
            (String.length message >= 17
            && String.sub message 0 17 = "malformed request")
      | _ -> Alcotest.fail "expected an error frame for a malformed line");
      Client.send_line c {|{"v":1,"id":7,"cmd":"frobnicate","files":[],"opts":{}}|};
      (match Client.read_response c with
      | Ok (Protocol.Error_frame { id; exit_code; _ }) ->
          Alcotest.(check int) "bad request echoes the id" 7 id;
          Alcotest.(check int) "and exits 2" 2 exit_code
      | _ -> Alcotest.fail "expected an error frame for an unknown cmd");
      (* the connection survives both: a well-formed request still answers *)
      Client.send_request c (mk_req Protocol.Ping []);
      (match Client.read_response c with
      | Ok (Protocol.Result { out; daemon; _ }) ->
          Alcotest.(check string) "ping answers" "kpt-serve: alive\n" out;
          Alcotest.(check bool) "with daemon introspection" true
            (List.mem_assoc "cache_hits" daemon && List.mem_assoc "pool_size" daemon)
      | _ -> Alcotest.fail "expected a ping result on the same connection")

(* JSON text with every non-ASCII character written as [\uXXXX] — a
   pair of them above U+FFFF — the way Python's [json.dumps] writes it by
   default. *)
let ascii_escape s =
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      let cp = Uchar.to_int (Uchar.utf_decode_uchar d) in
      if cp < 0x80 then Buffer.add_char b s.[i]
      else if cp < 0x10000 then Buffer.add_string b (Printf.sprintf "\\u%04x" cp)
      else begin
        let c = cp - 0x10000 in
        Buffer.add_string b
          (Printf.sprintf "\\u%04x\\u%04x" (0xd800 + (c lsr 10)) (0xdc00 + (c land 0x3ff)))
      end;
      go (i + Uchar.utf_decode_length d)
    end
  in
  go 0;
  Buffer.contents b

let test_astral_path_escaped_as_pairs () =
  let dir = Filename.temp_dir "kpt-astral" "" in
  let path = Filename.concat dir "spec-\xf0\x9f\x98\x80\xf0\x9d\x94\x8e.unity" in
  let source =
    "-- knowledge \xf0\x9d\x94\x8e of \xf0\x9f\x98\x80 (U+1F600)\n"
    ^ read_file "../examples/specs/mutex.unity"
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc source);
  let code, direct, _ = Helpers.run_kpt [ "check"; path ] in
  Sys.remove path;
  Sys.rmdir dir;
  let line =
    ascii_escape (Json.to_string (Protocol.request_to_json (mk_req Protocol.Check [ (path, source) ])))
  in
  Alcotest.(check bool) "the request line is ASCII" true
    (String.for_all (fun c -> Char.code c < 0x80) line);
  Alcotest.(check bool) "and carries surrogate pairs" true
    (Helpers.contains ~affix:"\\ud83d\\ude00" line);
  with_server ~tag:"astral" @@ fun socket ->
  match Client.connect ~socket with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Client.send_line c line;
      let r = result_exn (Result.map_error Client.read_error_to_string (Client.read_response c)) in
      Alcotest.(check int) "exit code as kpt check" code r.exit_code;
      Alcotest.(check string) "stdout byte-identical to kpt check on the file" direct r.out

let test_trace_streams_events () =
  let sources =
    [ ("examples/specs/figure1.unity", read_file "../examples/specs/figure1.unity") ]
  in
  let opts = { Driver.default_options with Driver.trace = true } in
  with_server ~tag:"trace" @@ fun socket ->
  let events = ref [] in
  let on_event name fields = events := (name, fields) :: !events in
  let send () =
    result_exn (Client.roundtrip ~on_event ~socket (mk_req ~opts Protocol.Solve sources))
  in
  let r = send () in
  Alcotest.(check int) "solve succeeds" 0 r.exit_code;
  Alcotest.(check bool) "event frames streamed before the result" true
    (List.length !events > 0);
  (* a cache hit computes nothing, so it streams nothing *)
  events := [];
  let r2 = send () in
  Alcotest.(check bool) "second answer is cached" true r2.cached;
  Alcotest.(check int) "a cached answer streams no events" 0 (List.length !events);
  Alcotest.(check string) "but carries the same bytes" r.out r2.out

(* ---- daemon lifecycle --------------------------------------------------------- *)

let test_stale_socket_reclaimed () =
  let socket = socket_path "stale" in
  if Sys.file_exists socket then Sys.remove socket;
  (* a socket file with no listener behind it: bound and abandoned,
     exactly what a SIGKILLed daemon leaves behind *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX socket);
  Unix.close dead;
  Alcotest.(check bool) "the stale file exists" true (Sys.file_exists socket);
  let daemon =
    Domain.spawn (fun () ->
        Server.run ~announce:false
          (Server.config ~socket_path:socket ~cache_size:4 ()))
  in
  wait_for_socket socket;
  let r = result_exn (Client.roundtrip ~socket (mk_req Protocol.Ping [])) in
  Alcotest.(check string) "daemon reclaimed the stale socket" "kpt-serve: alive\n" r.out;
  ignore (Client.roundtrip ~socket (mk_req Protocol.Shutdown []));
  Alcotest.(check int) "and shuts down cleanly" 0 (Domain.join daemon);
  Alcotest.(check bool) "removing the socket" false (Sys.file_exists socket)

let test_second_daemon_refused () =
  with_server ~tag:"refuse" @@ fun socket ->
  (* the socket is live: a second daemon must refuse to steal it *)
  Alcotest.(check int) "second daemon on a live socket exits 1" 1
    (Server.run ~announce:false (Server.config ~socket_path:socket ~cache_size:4 ()));
  Alcotest.(check bool) "and leaves the live socket alone" true (Sys.file_exists socket)

let test_concurrent_clients_match_sequential () =
  let sources = corpus () in
  let opts = { Driver.default_options with Driver.jobs = Some 4 } in
  let direct = Driver.check opts sources in
  with_server ~tag:"concurrent" @@ fun socket ->
  let fetch () =
    match Client.roundtrip ~socket (mk_req ~opts Protocol.Check sources) with
    | Ok (Protocol.Result { out; exit_code; _ }) -> (exit_code, out)
    | Ok _ -> (-1, "unexpected frame")
    | Error msg -> (-1, msg)
  in
  (* two clients racing on connect: the daemon serves them in accept
     order; both must get the direct command's bytes *)
  let a = Domain.spawn fetch in
  let b = Domain.spawn fetch in
  let ra = Domain.join a in
  let rb = Domain.join b in
  List.iter
    (fun (name, (code, out)) ->
      Alcotest.(check int) (name ^ ": exit code") direct.Driver.code code;
      Alcotest.(check string) (name ^ ": bytes") direct.Driver.out out)
    [ ("client A", ra); ("client B", rb) ]

(* ---- overload shedding -------------------------------------------------------- *)

(* Adversarial clients connect with [Client] and write raw bytes through
   [Client.fd]; every read they make is bounded, because a test that
   blocks forever on a frame the daemon never owes it wedges the whole
   suite. *)
let connect_exn socket =
  match Client.connect ~socket with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let frame_exn c =
  match Client.read_response ~timeout:10.0 c with
  | Ok frame -> frame
  | Error e -> Alcotest.failf "no frame within 10s: %s" (Client.read_error_to_string e)

let test_overload_sheds_with_structured_frame () =
  (* one worker, a queue of one: a silent connection holds the worker
     (its read blocks — no deadline is armed), another parks in the
     queue, and the next must be shed at accept with the structured
     frame.  Which connection ends up parked depends on how quickly the
     worker dequeues the first, so probe with fresh connections until
     one is shed instead of assuming the third one is. *)
  with_server ~tag:"shed" ~jobs:1 ~queue:1 @@ fun socket ->
  let opened = ref [] in
  let connect () =
    let c = connect_exn socket in
    opened := c :: !opened;
    c
  in
  Fun.protect ~finally:(fun () -> List.iter Client.close !opened) @@ fun () ->
  let _holder = connect () in
  Unix.sleepf 0.2 (* let the worker pop the holder off the queue *);
  let rec shed_frame n =
    if n = 0 then Alcotest.fail "no probe connection was ever shed"
    else
      match Client.read_response ~timeout:2.0 (connect ()) with
      | Ok frame -> frame
      | Error Client.Timed_out ->
          shed_frame (n - 1) (* parked in the queue; leave it there *)
      | Error e -> Alcotest.failf "probe: %s" (Client.read_error_to_string e)
  in
  match shed_frame 4 with
  | Protocol.Error_frame { exit_code; kind; message; _ } as frame ->
      Alcotest.(check int) "shed exits 75 (EX_TEMPFAIL)" Protocol.exit_overloaded
        exit_code;
      Alcotest.(check bool) "with the overloaded kind" true
        (kind = Protocol.Overloaded);
      Alcotest.(check bool) "naming the condition" true
        (String.length message >= 10 && String.sub message 0 10 = "overloaded");
      (* the shed frame is the one reply a client may retry after *)
      Alcotest.(check bool) "and it is the retryable reply" true
        (Client.retryable_response frame)
  | _ -> Alcotest.fail "expected the overloaded error frame"

(* ---- the I/O deadline --------------------------------------------------------- *)

let test_slow_loris_disconnected () =
  with_server ~tag:"loris" ~request_timeout:0.3 @@ fun socket ->
  let c = connect_exn socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* drip bytes slower than any per-read timer would notice: the
     deadline is absolute, so the drip must still be cut.  A write that
     meets the cut (EPIPE, ECONNRESET) ends the drip; the frame the
     daemon sent before closing is still there to read. *)
  let rec drip k =
    if k > 0 then
      match Unix.write_substring (Client.fd c) "{" 0 1 with
      | _ ->
          Unix.sleepf 0.1;
          drip (k - 1)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  drip 4;
  (match frame_exn c with
  | Protocol.Error_frame { exit_code; kind; _ } ->
      Alcotest.(check int) "deadline exits 4" Protocol.exit_io_timeout exit_code;
      Alcotest.(check bool) "with the timeout kind" true (kind = Protocol.Timeout)
  | _ -> Alcotest.fail "expected the deadline error frame");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "cut near the 0.3s deadline (%.2fs elapsed)" elapsed)
    true
    (elapsed < 3.0);
  (* the cut is a disconnect, not a lingering half-open connection *)
  Alcotest.(check bool) "connection is closed after the frame" true
    (Client.read_response ~timeout:10.0 c = Error Client.Closed)

(* ---- protocol version skew ---------------------------------------------------- *)

let test_version_mismatch_is_structured () =
  with_server ~tag:"version" @@ fun socket ->
  match Client.connect ~socket with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c)
      @@ fun () ->
      Client.send_line c {|{"v":99,"id":5,"cmd":"ping","files":[],"opts":{}}|};
      (match Client.read_response c with
      | Ok (Protocol.Error_frame { id; exit_code; kind; message }) ->
          Alcotest.(check int) "echoes the id" 5 id;
          Alcotest.(check int) "exits 2" 2 exit_code;
          Alcotest.(check bool) "with the version_mismatch kind" true
            (kind = Protocol.Version_mismatch);
          let contains needle =
            let n = String.length needle and h = String.length message in
            let rec go i = i + n <= h && (String.sub message i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "naming the client's version" true (contains "v99");
          Alcotest.(check bool) "and the daemon's" true
            (contains (Printf.sprintf "v%d" Protocol.version))
      | _ -> Alcotest.fail "expected a version_mismatch error frame");
      (* skew on one request does not poison the connection *)
      Client.send_request c (mk_req Protocol.Ping []);
      (match Client.read_response c with
      | Ok (Protocol.Result { out; _ }) ->
          Alcotest.(check string) "same connection still answers" "kpt-serve: alive\n"
            out
      | _ -> Alcotest.fail "expected a ping result after the mismatch")

(* ---- a client vanishing mid-request ------------------------------------------- *)

let test_mid_request_disconnect_recovers () =
  let sources =
    [ ("examples/specs/transmit.unity", read_file "../examples/specs/transmit.unity") ]
  in
  with_server ~tag:"vanish" ~jobs:1 @@ fun socket ->
  (* ship a complete request, then vanish before the reply: the single
     worker meets EPIPE mid-reply and must recycle, not die *)
  let c = connect_exn socket in
  Client.send_request c (mk_req Protocol.Check sources);
  Client.close c;
  (* the only worker is (or was) busy with the orphan; this answer
     proves it came back for the next connection *)
  let r = result_exn (Client.roundtrip ~socket (mk_req Protocol.Ping [])) in
  Alcotest.(check string) "daemon serves after the disconnect" "kpt-serve: alive\n"
    r.out

(* ---- short writes ------------------------------------------------------------- *)

let test_write_all_survives_short_writes () =
  (* a payload far beyond any socket buffer, a writer squeezed into a
     tiny SO_SNDBUF, and a reader that drains slowly: write_all must
     take many short writes to get it through, byte-for-byte *)
  let payload = String.init 1_000_000 (fun i -> Char.chr (i mod 251)) in
  let rfd, wfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int wfd Unix.SO_SNDBUF 4096 with Unix.Unix_error _ -> ());
  let writer =
    Domain.spawn (fun () ->
        Protocol.write_all wfd payload;
        Unix.close wfd)
  in
  let buf = Bytes.create 8192 in
  let received = Buffer.create (String.length payload) in
  let rec drain () =
    match Unix.read rfd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes received buf 0 n;
        (* stay slower than the writer so its buffer keeps filling *)
        if Buffer.length received mod 3 = 0 then Unix.sleepf 0.0005;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Domain.join writer;
  Unix.close rfd;
  Alcotest.(check int) "every byte arrived" (String.length payload)
    (Buffer.length received);
  Alcotest.(check bool) "in order" true (Buffer.contents received = payload)

(* ---- request-level parallelism ------------------------------------------------ *)

let test_jobs4_concurrent_byte_identity () =
  let specs =
    match corpus () with
    | a :: b :: c :: d :: _ -> [ a; b; c; d ]
    | _ -> Alcotest.fail "corpus too small"
  in
  let direct =
    List.map (fun s -> Driver.check Driver.default_options [ s ]) specs
  in
  with_server ~tag:"jobs4" ~jobs:4 @@ fun socket ->
  (* four distinct requests in flight at once, one per worker domain:
     each must come back with exactly the direct driver's bytes *)
  let fetchers =
    List.map
      (fun s ->
        Domain.spawn (fun () ->
            Client.roundtrip ~socket (mk_req Protocol.Check [ s ])))
      specs
  in
  List.iteri
    (fun i (d : Driver.outcome) ->
      let r = result_exn (Domain.join (List.nth fetchers i)) in
      let name = Printf.sprintf "spec %d" i in
      Alcotest.(check int) (name ^ ": exit code") d.Driver.code r.exit_code;
      Alcotest.(check string) (name ^ ": bytes") d.Driver.out r.out)
    direct

(* ---- the retry schedule ------------------------------------------------------- *)

let test_jitter_bounded_and_deterministic () =
  let base = 0.05 in
  List.iter
    (fun prev ->
      let rng = Kpt_gen.Rng.make 42L in
      for _ = 1 to 50 do
        let s = Client.decorrelated_jitter rng ~base ~prev in
        let hi = Float.min 5.0 (Float.max base (3. *. prev)) in
        Alcotest.(check bool)
          (Printf.sprintf "%.3f within [%.3f, %.3f] (prev %.3f)" s base hi prev)
          true
          (s >= base -. 1e-9 && s <= hi +. 1e-9)
      done)
    [ 0.0; 0.05; 0.2; 1.0; 10.0 ];
  (* one seed, one schedule: the replay contract behind KPT_RETRY_SEED *)
  let walk seed =
    let rng = Kpt_gen.Rng.make seed in
    let rec go prev n acc =
      if n = 0 then List.rev acc
      else
        let s = Client.decorrelated_jitter rng ~base ~prev in
        go s (n - 1) (s :: acc)
    in
    go base 10 []
  in
  Alcotest.(check (list (float 1e-12))) "same seed, same schedule" (walk 7L) (walk 7L);
  Alcotest.(check bool) "different seed, different schedule" true
    (walk 7L <> walk 8L)

let test_retryable_is_only_the_shed () =
  let err kind =
    Protocol.Error_frame { id = 0; exit_code = 1; kind; message = "m" }
  in
  Alcotest.(check bool) "overloaded retries" true
    (Client.retryable_response (err Protocol.Overloaded));
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        ("never resent: " ^ Protocol.error_kind_to_string kind)
        false
        (Client.retryable_response (err kind)))
    [ Protocol.Generic; Protocol.Timeout; Protocol.Version_mismatch;
      Protocol.Interrupted ];
  Alcotest.(check bool) "a result is final" false
    (Client.retryable_response
       (Protocol.Result
          { id = 0; exit_code = 0; cached = false; out = ""; err = ""; daemon = [] }))

let test_retry_reaches_a_late_daemon () =
  (* the daemon binds 0.4s after the client starts knocking: with a
     retry budget the client must get through; without one it must not *)
  let socket = socket_path "lateretry" in
  if Sys.file_exists socket then Sys.remove socket;
  Unix.putenv "KPT_RETRY_SEED" "7";
  Fun.protect ~finally:(fun () -> Unix.putenv "KPT_RETRY_SEED" "")
  @@ fun () ->
  Alcotest.(check int) "no retries, no daemon: exits 2" 2
    (Client.run_cli ~socket ~serve_auto:false ~retries:0 ~backoff:0.01
       (mk_req Protocol.Ping []));
  let daemon =
    Domain.spawn (fun () ->
        Unix.sleepf 0.4;
        Server.run ~announce:false (Server.config ~socket_path:socket ~cache_size:4 ()))
  in
  let code =
    Client.run_cli ~socket ~serve_auto:false ~retries:8 ~backoff:0.15
      (mk_req Protocol.Ping [])
  in
  Alcotest.(check int) "retries carry the ping through" 0 code;
  ignore (Client.roundtrip ~socket (mk_req Protocol.Shutdown []));
  Alcotest.(check int) "daemon exits 0" 0 (Domain.join daemon)

(* ---- ping health fields ------------------------------------------------------- *)

let test_ping_health_golden () =
  let sources =
    [ ("examples/specs/transmit.unity", read_file "../examples/specs/transmit.unity") ]
  in
  with_server ~tag:"health" ~jobs:2 ~queue:8 @@ fun socket ->
  ignore (result_exn (Client.roundtrip ~socket (mk_req Protocol.Check sources)));
  let r = result_exn (Client.roundtrip ~socket (mk_req Protocol.Ping []))
  in
  (* wall-clock and machine-shape fields carry no pinnable value *)
  let volatile = [ "uptime_s"; "in_flight"; "pool_size" ] in
  let rendered =
    String.concat ""
      (List.map
         (fun (k, v) ->
           Printf.sprintf "%s %s\n" k
             (if List.mem k volatile then "-" else string_of_int v))
         r.daemon)
  in
  Alcotest.(check string) "health fields match the golden file"
    (read_file "golden/ping_health.txt") rendered

(* ---- the CLI transport: kpt CMD --socket S vs kpt CMD ------------------------- *)

(* A real [kpt serve] process; [f socket] runs against it, then
   [kpt client shutdown] must stop it cleanly (exit 0, socket gone). *)
let with_daemon_process ~tag f =
  let socket = socket_path tag in
  if Sys.file_exists socket then Sys.remove socket;
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let exe = Helpers.kpt_exe in
  let pid = Unix.create_process exe [| exe; "serve"; "--socket"; socket |] Unix.stdin null null in
  Unix.close null;
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      wait_for_socket socket;
      f socket;
      let code, _, _ = Helpers.run_kpt [ "client"; "shutdown"; "--socket"; socket ] in
      Alcotest.(check int) "client shutdown exits 0" 0 code;
      let status = snd (Unix.waitpid [] pid) in
      reaped := true;
      Alcotest.(check bool) "daemon exits 0" true (status = Unix.WEXITED 0);
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
      socket)

let check_same_run name (dc, dout, derr) (sc, sout, serr) =
  Alcotest.(check int) (name ^ ": exit code") dc sc;
  Alcotest.(check string) (name ^ ": stdout") dout sout;
  Alcotest.(check string) (name ^ ": stderr") derr serr

let test_cli_transport_byte_identity () =
  let spec n = "../examples/specs/" ^ n ^ ".unity" in
  let specs = List.map spec [ "figure1"; "mutex"; "transmit"; "relay" ] in
  let cases =
    [
      "check" :: specs;
      "check" :: "--json" :: specs;
      "lint" :: "--semantic" :: specs;
      [ "stats"; "--json"; spec "transmit" ];
      [ "solve-file"; spec "figure1" ];
      [ "slice"; "../examples/analysis/ring_mon.unity"; "--wrt"; "~(busy0 /\\ busy1)" ];
    ]
  in
  let socket =
    with_daemon_process ~tag:"cli" @@ fun socket ->
    List.iter
      (fun args ->
        check_same_run (String.concat " " args) (Helpers.run_kpt args)
          (Helpers.run_kpt (args @ [ "--socket"; socket ])))
      cases
  in
  (* the daemon is gone: --socket insists on one, --serve-auto runs locally *)
  let args = [ "check"; spec "mutex" ] in
  let code, _, err = Helpers.run_kpt (args @ [ "--socket"; socket ]) in
  Alcotest.(check int) "unreachable --socket exits 2" 2 code;
  Alcotest.(check bool) "the hint names kpt serve" true
    (Helpers.contains ~affix:"kpt serve" err);
  check_same_run "--serve-auto without a daemon" (Helpers.run_kpt args)
    (Helpers.run_kpt (args @ [ "--serve-auto"; "--socket"; socket ]))

(* ---- malformed specs over the wire ------------------------------------------ *)

(* The malformed-spec table through the in-process daemon: every reply is
   a result frame (never a dropped connection) byte-identical to the
   direct run, exit code included. *)
let test_malformed_table_served () =
  with_server ~tag:"malformed-table" @@ fun socket ->
  List.iteri
    (fun i ((file, _) as spec) ->
      List.iteri
        (fun j (label, cmd, opts, sources) ->
          let direct = Kpt_serve.Handler.dispatch cmd opts sources in
          let served =
            result_exn
              (Client.roundtrip ~socket (mk_req ~id:((100 * i) + j) ~opts cmd sources))
          in
          check_outcome (file ^ " / " ^ label) direct served ~cached:false)
        (Helpers.malformed_runs spec))
    (Helpers.malformed_specs ())

(* ---- solve-file on every shipped spec ------------------------------------------ *)

(* [x] counts to 30 under a knowledge guard: 30 free candidate states,
   past the 2^22 cap of the exhaustive solver. *)
let counter_spec =
  "program counter\nvar x : nat(30)\nprocesses\n  P = { x }\ninit x = 0\nassign\n\
  \  inc: x := x + 1 if K[P](x < 30)\n"

(* Every shipped spec, and a knowledge KBP past the candidate cap, gets a
   result frame byte-identical to the direct run: the standard specs
   print their one solution, the capped KBP one line and exit 3. *)
let test_solve_file_served () =
  let runs =
    List.map (fun spec -> (spec, None)) (Helpers.shipped_specs ())
    @ [ (("counter.unity", counter_spec), Some Driver.exit_resource) ]
  in
  with_server ~tag:"solve-file" @@ fun socket ->
  List.iteri
    (fun i (((file, _) as spec), want) ->
      let direct = Kpt_serve.Handler.dispatch Protocol.Solve Driver.default_options [ spec ] in
      (match want with
      | None -> Alcotest.(check int) (file ^ ": solve-file exits 0") 0 direct.Driver.code
      | Some code ->
          Alcotest.(check int) (file ^ ": solve-file exits 3") code direct.Driver.code;
          Alcotest.(check bool) (file ^ ": the cap is one line") true
            (Helpers.contains
               ~affix:"\nSolution enumeration: 30 free candidate states exceed the 2^22 cap.\n"
               direct.Driver.out));
      let served =
        match Client.roundtrip ~timeout:90. ~socket (mk_req ~id:(i + 1) Protocol.Solve [ spec ]) with
        | Error msg -> Alcotest.failf "served solve-file %s: %s" file msg
        | reply -> result_exn reply
      in
      check_outcome file direct served ~cached:false)
    runs

(* The padded KBP: 62 booleans pinned false in [init] around a 3-state
   SI.  Solving it costs what its BDDs cost, not the 2^64-state space. *)
let test_solve_file_padded () =
  let pads = List.init 62 (fun i -> Printf.sprintf "p%d" i) in
  let src =
    Printf.sprintf
      "program padded\nvar x0, x1, %s : bool\nprocesses\n  P = { x0 }\ninit ~x0 /\\ ~x1 /\\ %s\nassign\n  set: x0 := true if ~x0\n| tell: x1 := true if K[P](x0) /\\ ~x1\n"
      (String.concat ", " pads)
      (String.concat " /\\ " (List.map (( ^ ) "~") pads))
  in
  let path = Filename.temp_file "kpt-padded" ".unity" in
  Out_channel.with_open_bin path (fun oc -> output_string oc src);
  let t0 = Unix.gettimeofday () in
  let code, out, _ = Helpers.run_kpt [ "solve-file"; path ] in
  let elapsed = Unix.gettimeofday () -. t0 in
  Sys.remove path;
  Alcotest.(check int) "solve-file exits 0" 0 code;
  Alcotest.(check bool) (Printf.sprintf "under 1 s (%.2fs)" elapsed) true (elapsed < 1.0);
  let state x0 x1 =
    Printf.sprintf "⟨x0=%s x1=%s %s⟩" x0 x1
      (String.concat " " (List.map (fun p -> p ^ "=false") pads))
  in
  let si =
    Printf.sprintf "1 solution(s):\n  SI = {%s}\n"
      (String.concat ", " [ state "false" "false"; state "true" "false"; state "true" "true" ])
  in
  Alcotest.(check bool) "the one 3-state SI" true (Helpers.contains ~affix:si out)

(* ---- a mini chaos sweep ------------------------------------------------------- *)

let test_chaos_mini_sweep () =
  let dir = Filename.temp_file "kpt-chaos-corpus" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let specs =
    match corpus () with a :: b :: _ -> [ a; b ] | _ -> Alcotest.fail "corpus too small"
  in
  List.iteri
    (fun i (_, src) ->
      let oc = open_out_bin (Filename.concat dir (Printf.sprintf "spec%02d.unity" i)) in
      output_string oc src;
      close_out oc)
    specs;
  let null =
    Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())
  in
  let code =
    Kpt_serve.Chaos.run null
      {
        Kpt_serve.Chaos.exe = "../bin/kpt.exe";
        dir;
        specs = 2;
        seed = 11L;
        socket = socket_path "chaosmini";
        jobs = 2;
        queue = 4;
        request_timeout = 0.5;
        faults =
          [
            Kpt_serve.Chaos.Truncate; Kpt_serve.Chaos.Garbage;
            Kpt_serve.Chaos.Partial_write; Kpt_serve.Chaos.Disconnect;
          ];
      }
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  Alcotest.(check int) "chaos sweep holds every invariant" 0 code

(* ---- the one frame reader ----------------------------------------------------- *)

let result_line ~out =
  Json.to_line
    (Protocol.response_to_json
       (Protocol.Result { id = 1; exit_code = 0; cached = false; out; err = ""; daemon = [] }))

(* The client end of a socketpair, read through [Client]; the other end
   is the test's, written raw. *)
let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = Client.of_fd a in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f c b)

(* A stand-in daemon on a fresh socket: for each connection it reads the
   request line, writes [reply] raw, then hangs up.  Returns [f socket]
   and the number of connections accepted — the probe for what [run_cli]
   resends. *)
let with_fake_daemon ~tag ~reply f =
  let socket = socket_path tag in
  if Sys.file_exists socket then Sys.remove socket;
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX socket);
  Unix.listen lsock 8;
  let stop = Atomic.make false in
  let acceptor =
    Domain.spawn (fun () ->
        let rec loop n =
          if Atomic.get stop then n
          else
            match Unix.select [ lsock ] [] [] 0.02 with
            | [], _, _ -> loop n
            | _ ->
                let fd, _ = Unix.accept lsock in
                let r = Protocol.make_reader fd in
                ignore (Protocol.read_line r ~deadline:(Some (Unix.gettimeofday () +. 2.)));
                (try Protocol.write_all fd reply with Unix.Unix_error _ -> ());
                Unix.close fd;
                loop (n + 1)
        in
        loop 0)
  in
  let result = try Ok (f socket) with e -> Error e in
  Atomic.set stop true;
  let accepted = Domain.join acceptor in
  Unix.close lsock;
  Sys.remove socket;
  match result with Ok v -> (v, accepted) | Error e -> raise e

(* [run_cli] with a retry budget of 3 against a fake daemon: its exit
   code, and how many times it sent the request. *)
let run_cli_against ~tag ~reply =
  with_fake_daemon ~tag ~reply (fun socket ->
      Client.run_cli ~socket ~serve_auto:false ~retries:3 ~backoff:0.01
        (mk_req Protocol.Ping []))

(* Frames are read from a buffer, not one per read: an event and the
   result written at once both arrive, in order. *)
let test_two_frames_one_write () =
  with_pair @@ fun c b ->
  let event =
    Json.to_line
      (Protocol.response_to_json
         (Protocol.Event { id = 1; name = "sst.iter"; fields = [ ("n", 3) ] }))
  in
  Protocol.write_all b (event ^ result_line ~out:"done\n");
  let events = ref [] in
  let on_event name fields = events := (name, fields) :: !events in
  let r = result_exn (Result.map_error Client.read_error_to_string (Client.read_response ~on_event ~timeout:10. c)) in
  Alcotest.(check string) "the result frame arrives" "done\n" r.out;
  Alcotest.(check (list (pair string (list (pair string int)))))
    "and the event before it" [ ("sst.iter", [ ("n", 3) ]) ] !events

(* A deadline that passes is [Timed_out] within the deadline's time; a
   later read with no deadline on the same connection waits as long as
   it takes. *)
let test_deadline_times_out_and_disarms () =
  with_pair @@ fun c b ->
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "a silent peer times out" true
    (Client.read_response ~timeout:0.2 c = Error Client.Timed_out);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "within 2 s (%.2fs)" elapsed) true (elapsed < 2.0);
  let late =
    Domain.spawn (fun () ->
        Unix.sleepf 0.5;
        Protocol.write_all b (result_line ~out:"late\n"))
  in
  let r = Client.read_response c in
  Domain.join late;
  Alcotest.(check string) "no deadline: the late reply arrives" "late\n"
    (result_exn (Result.map_error Client.read_error_to_string r)).out

(* A line the daemon began and never ended is [Cut] — a whole line that
   does not decode stays [Malformed] — and [run_cli] resends neither; a
   connection closed with no reply is retried, as before. *)
let test_cut_line_is_never_resent () =
  let cut = String.sub (result_line ~out:"x") 0 20 in
  let read_after bytes =
    with_pair (fun c b ->
        Protocol.write_all b bytes;
        Unix.close b;
        Client.read_response ~timeout:10. c)
  in
  Alcotest.(check bool) "a cut line then EOF is Cut" true
    (match read_after cut with Error (Client.Cut _) -> true | _ -> false);
  Alcotest.(check bool) "a whole garbage line is Malformed" true
    (match read_after (cut ^ "\n") with Error (Client.Malformed _) -> true | _ -> false);
  let code, sent = run_cli_against ~tag:"cut" ~reply:cut in
  Alcotest.(check (pair int int)) "a cut reply exits 2 and is sent once" (2, 1) (code, sent);
  let code, sent = run_cli_against ~tag:"hangup" ~reply:"" in
  Alcotest.(check (pair int int)) "a closed connection is retried 3 times" (2, 4) (code, sent)

let suite =
  [
    Alcotest.test_case "served check is byte-identical (cold/warm/cached)" `Quick
      test_check_byte_identity;
    Alcotest.test_case "cache key is content-addressed" `Quick
      test_cache_key_content_addressed;
    Alcotest.test_case "budget exhaustion is not sticky across requests" `Quick
      test_budget_exhaustion_not_sticky;
    Alcotest.test_case "malformed request then valid on one connection" `Quick
      test_malformed_then_valid_on_same_connection;
    Alcotest.test_case "--trace streams events over the wire" `Quick
      test_trace_streams_events;
    Alcotest.test_case "stale socket is reclaimed" `Quick test_stale_socket_reclaimed;
    Alcotest.test_case "second daemon on a live socket is refused" `Quick
      test_second_daemon_refused;
    Alcotest.test_case "concurrent clients match sequential" `Quick
      test_concurrent_clients_match_sequential;
    Alcotest.test_case "overload sheds with the structured frame (exit 75)" `Quick
      test_overload_sheds_with_structured_frame;
    Alcotest.test_case "slow-loris is cut at the absolute deadline (exit 4)" `Quick
      test_slow_loris_disconnected;
    Alcotest.test_case "protocol version skew is a structured error" `Quick
      test_version_mismatch_is_structured;
    Alcotest.test_case "mid-request disconnect leaves the daemon serving" `Quick
      test_mid_request_disconnect_recovers;
    Alcotest.test_case "write_all survives short writes byte-for-byte" `Quick
      test_write_all_survives_short_writes;
    Alcotest.test_case "--serve-jobs 4 serves concurrent requests byte-identically"
      `Quick test_jobs4_concurrent_byte_identity;
    Alcotest.test_case "retry jitter is bounded and seed-deterministic" `Quick
      test_jitter_bounded_and_deterministic;
    Alcotest.test_case "only the overloaded shed is retryable" `Quick
      test_retryable_is_only_the_shed;
    Alcotest.test_case "retries reach a late-binding daemon" `Quick
      test_retry_reaches_a_late_daemon;
    Alcotest.test_case "ping health fields are pinned (golden)" `Quick
      test_ping_health_golden;
    Alcotest.test_case "kpt CMD --socket is byte-identical to kpt CMD" `Quick
      test_cli_transport_byte_identity;
    Alcotest.test_case "malformed specs: served replies match direct" `Quick
      test_malformed_table_served;
    Alcotest.test_case "solve-file on every shipped spec: served = direct" `Quick
      test_solve_file_served;
    Alcotest.test_case "solve-file on the 64-boolean padded KBP" `Quick
      test_solve_file_padded;
    Alcotest.test_case "mini chaos sweep against a spawned daemon" `Slow
      test_chaos_mini_sweep;
    Alcotest.test_case "an astral path escaped as surrogate pairs serves kpt check's bytes" `Quick
      test_astral_path_escaped_as_pairs;
    Alcotest.test_case "one reader: two frames in one write both arrive" `Quick
      test_two_frames_one_write;
    Alcotest.test_case "one reader: a deadline times out, then disarms" `Quick
      test_deadline_times_out_and_disarms;
    Alcotest.test_case "one reader: a line cut by EOF is never resent" `Quick
      test_cut_line_is_never_resent;
  ]

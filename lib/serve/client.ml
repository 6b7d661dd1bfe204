open Kpt_analysis

type connection = { fd : Unix.file_descr; reader : Protocol.reader }

let of_fd fd = { fd; reader = Protocol.make_reader fd }
let fd c = c.fd
let connect ~socket = Result.map of_fd (Protocol.connect ~socket)
let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Frames go out through the protocol's write_all loop — an out_channel
   flush can lose the tail of a short write to a socket silently; the
   loop cannot. *)
let send_line c line = Protocol.write_line c.fd line

let send_request c req = Protocol.write_all c.fd (Json.to_line (Protocol.request_to_json req))

type read_error = Closed | Malformed of string | Cut of string | Timed_out

let read_error_to_string = function
  | Closed -> "connection closed before a reply arrived"
  | Malformed msg | Cut msg -> msg
  | Timed_out -> "no reply before the client's deadline"

(* A line the daemon began and never ended is decoded as if it had its
   newline — it can only fail, as [Cut], so a truncated reply is never
   resent. *)
let read_response ?(on_event = fun _ _ -> ()) ?timeout c =
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
  let rec loop () =
    match Protocol.read_line c.reader ~deadline with
    | `Line line -> decode line
    | `Timeout -> Error Timed_out
    | `Eof -> (
        match Protocol.unterminated c.reader with
        | "" -> Error Closed
        | line -> (
            match decode line with Error (Malformed msg) -> Error (Cut msg) | r -> r))
  and decode line =
    match Protocol.response_of_json (Json.of_string line) with
    | exception Json.Parse_error msg -> Error (Malformed ("malformed frame: " ^ msg))
    | Error msg -> Error (Malformed msg)
    | Ok (Protocol.Event { name; fields; _ }) ->
        on_event name fields;
        loop ()
    | Ok frame -> Ok frame
  in
  loop ()

(* The daemon sheds by replying and closing immediately — if that close
   wins the race against our request write, the write raises EPIPE.
   Without this, the default SIGPIPE disposition kills the client before
   the retry logic ever sees the failure. *)
let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Send one request and read its reply; a write that meets a closed
   connection is [Closed], like a read that does. *)
let exchange ?on_event ?timeout c req =
  match send_request c req with
  | () -> read_response ?on_event ?timeout c
  | exception Unix.Unix_error _ -> Error Closed

let roundtrip ?on_event ?timeout ~socket req =
  ignore_sigpipe ();
  match connect ~socket with
  | Error msg -> Error msg
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () -> Result.map_error read_error_to_string (exchange ?on_event ?timeout c req))

(* ---- retry policy ----------------------------------------------------------

   Decorrelated jitter: each sleep is uniform over [base, 3 * previous],
   capped — the classic AWS-architecture-blog shape, which spreads a
   thundering herd apart faster than exponential-with-jitter while
   keeping the first retry cheap.  The randomness comes from a
   [Kpt_gen.Rng] stream, so a test (or a user chasing a heisenbug) can
   pin [KPT_RETRY_SEED] and replay the exact schedule. *)

let default_backoff = 0.05
let backoff_cap = 5.0

let decorrelated_jitter rng ~base ~prev =
  let lo = base in
  let hi = Float.max base (3. *. prev) in
  let u = float_of_int (Kpt_gen.Rng.int rng 1_000_000) /. 1_000_000. in
  Float.min backoff_cap (lo +. ((hi -. lo) *. u))

(* A reply in hand means the request was definitely executed (or
   definitely refused) — only the structured shed is worth retrying.
   Everything else retryable happens *before* a reply exists: a failed
   connect, or a connection that died with no frame. *)
let retryable_response = function
  | Protocol.Error_frame { kind = Protocol.Overloaded; _ } -> true
  | Protocol.Result _ | Protocol.Event _ | Protocol.Error_frame _ -> false

let retry_seed () =
  match Option.bind (Sys.getenv_opt "KPT_RETRY_SEED") Kpt_gen.Rng.seed_of_string with
  | Some s -> s
  | None ->
      Int64.logxor
        (Int64.of_int (Unix.getpid ()))
        (Int64.of_float (Unix.gettimeofday () *. 1e6))

(* ---- the CLI body ----------------------------------------------------------- *)

(* events render to stderr live as they arrive, whether they stream
   over the wire or from a local run *)
let render_event name fields =
  Kpt_obs.trace_sink Format.err_formatter name fields

let run_local (req : Protocol.request) =
  let sink = if req.Protocol.opts.Driver.trace then Some render_event else None in
  Driver.emit_outcome
    (Handler.dispatch ?sink req.Protocol.cmd req.Protocol.opts req.Protocol.files)

let error_hint = function
  | Protocol.Version_mismatch ->
      Some "upgrade the older side: client and daemon must speak the same protocol version"
  | Protocol.Overloaded ->
      Some "the daemon shed this request under load; retry with --retries N --retry-backoff S"
  | Protocol.Generic | Protocol.Timeout | Protocol.Interrupted -> None

let run_cli ~socket ~serve_auto ?(retries = 0) ?(backoff = default_backoff)
    (req : Protocol.request) =
  ignore_sigpipe ();
  let rng = Kpt_gen.Rng.make (retry_seed ()) in
  let fallback reason =
    match req.Protocol.cmd with
    | Protocol.Check | Protocol.Lint | Protocol.Stats | Protocol.Solve
    | Protocol.Slice
      when serve_auto ->
        (* same driver the daemon would run: same bytes, same code *)
        run_local req
    | _ ->
        Format.eprintf
          "error: cannot reach a kpt daemon at %s (%s); start one with `kpt serve`%s@."
          socket reason
          (if serve_auto then "" else " or pass --serve-auto");
        2
  in
  let rec attempt n prev_sleep =
    (* [Some sleep] when a retry budget remains: announce, sleep, go *)
    let retry_after what =
      if n >= retries then None
      else begin
        let s = decorrelated_jitter rng ~base:backoff ~prev:prev_sleep in
        Format.eprintf "kpt-client: %s; retrying in %.3fs (attempt %d of %d)@."
          what s (n + 2) (retries + 1);
        Unix.sleepf s;
        Some s
      end
    in
    match connect ~socket with
    | Error reason -> (
        match retry_after (Printf.sprintf "cannot reach the daemon (%s)" reason) with
        | Some s -> attempt (n + 1) s
        | None -> fallback reason)
    | Ok c -> (
        let reply =
          Fun.protect
            ~finally:(fun () -> close c)
            (fun () -> exchange ~on_event:render_event c req)
        in
        match reply with
        | Ok (Protocol.Result { exit_code; out; err; daemon; _ }) ->
            let code = Driver.emit_outcome { Driver.code = exit_code; out; err } in
            if daemon <> [] then begin
              List.iter (fun (k, v) -> Format.printf "  %-16s %d@." k v) daemon;
              Format.pp_print_flush Format.std_formatter ()
            end;
            code
        | Ok (Protocol.Error_frame { exit_code; kind; message; _ } as frame) -> (
            match
              if retryable_response frame then retry_after message else None
            with
            | Some s -> attempt (n + 1) s
            | None ->
                Format.eprintf "error: %s@." message;
                (match error_hint kind with
                | Some hint -> Format.eprintf "hint: %s@." hint
                | None -> ());
                exit_code)
        | Ok (Protocol.Event _) -> assert false (* read_response consumes events *)
        | Error ((Malformed _ | Cut _ | Timed_out) as e) ->
            (* an undecipherable or cut frame is not a connection
               failure: the daemon spoke, we did not understand; resend
               neither *)
            Format.eprintf "error: %s@." (read_error_to_string e);
            2
        | Error Closed -> (
            match retry_after (read_error_to_string Closed) with
            | Some s -> attempt (n + 1) s
            | None ->
                Format.eprintf "error: %s@." (read_error_to_string Closed);
                2))
  in
  attempt 0 backoff

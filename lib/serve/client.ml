open Kpt_analysis

type connection = { fd : Unix.file_descr; ic : in_channel }

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok { fd; ic = Unix.in_channel_of_descr fd }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Frames go out through the protocol's write_all loop — an out_channel
   flush can lose the tail of a short write to a socket silently; the
   loop cannot. *)
let send_line c line = Protocol.write_line c.fd line

let send_request c req = Protocol.write_all c.fd (Json.to_line (Protocol.request_to_json req))

type read_error = Closed | Malformed of string

let read_error_to_string = function
  | Closed -> "connection closed before a reply arrived"
  | Malformed msg -> msg

let read_response ?(on_event = fun _ _ -> ()) c =
  let rec loop () =
    match input_line c.ic with
    | exception End_of_file -> Error Closed
    | exception Sys_error _ -> Error Closed
    | line -> (
        match Protocol.response_of_json (Json.of_string line) with
        | exception Json.Parse_error msg -> Error (Malformed ("malformed frame: " ^ msg))
        | Error msg -> Error (Malformed msg)
        | Ok (Protocol.Event { name; fields; _ }) ->
            on_event name fields;
            loop ()
        | Ok frame -> Ok frame)
  in
  loop ()

(* The daemon sheds by replying and closing immediately — if that close
   wins the race against our request write, the write raises EPIPE.
   Without this, the default SIGPIPE disposition kills the client before
   the retry logic ever sees the failure. *)
let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let roundtrip ?on_event ~socket req =
  ignore_sigpipe ();
  match connect ~socket with
  | Error msg -> Error msg
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          match
            send_request c req;
            read_response ?on_event c
          with
          | Ok frame -> Ok frame
          | Error e -> Error (read_error_to_string e)
          | exception (Unix.Unix_error _ | Sys_error _) ->
              Error (read_error_to_string Closed))

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
            (fun () ->
              match
                send_request c req;
                read_response ~on_event:render_event c
              with
              | r -> r
              | exception (Unix.Unix_error _ | Sys_error _) -> Error Closed)
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
        | Error (Malformed msg) ->
            (* a decoded-but-undecipherable frame is not a connection
               failure: the daemon spoke, we did not understand — do not
               resend *)
            Format.eprintf "error: %s@." msg;
            2
        | Error Closed -> (
            match retry_after (read_error_to_string Closed) with
            | Some s -> attempt (n + 1) s
            | None ->
                Format.eprintf "error: %s@." (read_error_to_string Closed);
                2))
  in
  attempt 0 backoff

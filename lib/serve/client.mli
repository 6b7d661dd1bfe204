(** The client side of the wire protocol: connect, send one request,
    stream events, read the final frame.

    {!run_cli} is the served path of the verification commands
    ([kpt check --socket …] and friends) and the body of
    [kpt client ping|shutdown]: it prints the
    response's [stdout]/[stderr] bytes to the real streams (so a served
    answer is byte-identical to the direct command) and returns the
    daemon-reported exit code — the exit-code contract crosses the wire
    unchanged, including 3 (budget exhausted), 4 (I/O deadline), 75
    (overloaded) and 130 (daemon interrupted mid-request).

    {b Retries.}  [run_cli ~retries ~backoff] retries with decorrelated
    jitter (seeded from [KPT_RETRY_SEED] when set, so schedules replay
    deterministically) — but only on failures where the request
    demonstrably never produced an answer: a failed [connect], a
    connection that closed with no frame, or the daemon's structured
    [overloaded] shed.  A [result] or any other [error] frame means the
    request was definitely executed or definitely refused; those are
    never resent. *)

type connection

val connect : socket:string -> (connection, string) result
val close : connection -> unit

val send_request : connection -> Protocol.request -> unit
(** Ship one encoded request line through {!Protocol.write_all} — short
    writes resume, EINTR retries; a broken connection raises
    [Unix.Unix_error]. *)

val send_line : connection -> string -> unit
(** Ship one raw line (tests use this to exercise malformed-request
    handling). *)

type read_error =
  | Closed  (** EOF with no frame: the request may never have run *)
  | Malformed of string
      (** the daemon spoke, we could not decode it — not a transport
          failure, never retried *)

val read_error_to_string : read_error -> string

val read_response :
  ?on_event:(string -> (string * int) list -> unit) ->
  connection ->
  (Protocol.response, read_error) result
(** Read frames until a [result]/[error] frame arrives; [event] frames
    are fed to [on_event] (dropped by default). *)

val roundtrip :
  ?on_event:(string -> (string * int) list -> unit) ->
  socket:string ->
  Protocol.request ->
  (Protocol.response, string) result
(** [connect] + {!send_request} + {!read_response} + {!close}; transport
    exceptions mid-exchange surface as [Error] rather than raising. *)

val default_backoff : float
(** 0.05s — the base of the jitter schedule. *)

val decorrelated_jitter : Kpt_gen.Rng.t -> base:float -> prev:float -> float
(** One step of the retry schedule: uniform over
    [[base, max base (3 * prev)]], capped at 5s.  Exposed so tests can
    pin the schedule's bounds and determinism. *)

val retryable_response : Protocol.response -> bool
(** [true] only for the structured [overloaded] error frame — the single
    reply a client may safely resend after. *)

val run_local : Protocol.request -> int
(** Run a verification request in this process ({!Handler.dispatch},
    no cache), print its outcome and return its exit code — the direct
    path of the CLI.  Under [opts.trace] the events stream to stderr
    live.  @raise Invalid_argument on [Ping]/[Shutdown]. *)

val run_cli :
  socket:string ->
  serve_auto:bool ->
  ?retries:int ->
  ?backoff:float ->
  Protocol.request ->
  int
(** Send [req] to the daemon at [socket] and print the answer.
    [retries] (default 0) bounds additional attempts; [backoff] (default
    {!default_backoff}) seeds the jitter schedule.  When no daemon is
    reachable after the last attempt: [~serve_auto:true] falls back to
    {!run_local} (same driver, same bytes, same exit code); otherwise
    prints a hint naming [kpt serve] and returns 2. *)

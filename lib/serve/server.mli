(** The daemon loop: a Unix-domain-socket server speaking the
    newline-delimited JSON protocol ({!Protocol}) against one warm,
    thread-safe {!Handler}.

    {b Concurrency.}  The daemon holds exactly [jobs] domains: worker 0
    runs on the domain that called {!run}, the other [jobs - 1] workers
    on spawned ones, and a systhread of worker 0's domain accepts
    connections into a bounded queue.  The workers pop and serve them,
    each request under the usual per-request {!Kpt_analysis.Driver}
    scoping (fresh engine, private metrics), so concurrent requests
    share no engine state and the served bytes stay identical to direct
    execution.  When the queue
    is full the daemon sheds immediately: the new connection gets a
    structured [overloaded] error frame (exit {!Protocol.exit_overloaded})
    and is closed — load never piles up invisibly in the listen backlog.

    {b Deadlines.}  [request_timeout] bounds each request twice over: a
    socket-level absolute deadline for reading one request line (a
    slow-loris client is disconnected with an exit
    {!Protocol.exit_io_timeout} frame, no matter how steadily it drips)
    and a {!Kpt_predicate.Budget} wall-clock cap on the verification
    work itself (surfacing as the usual exit 3 when it expires).

    {b Lifecycle.}  Binding recovers stale socket files (a leftover path
    nobody accepts on is unlinked and re-bound; a live daemon is a
    startup error).  SIGINT/SIGTERM — or a [shutdown] request — trigger
    a drain: stop accepting, answer queued connections with structured
    exit-130 frames, let in-flight requests finish (bounded by their
    armed budgets), wake idle keep-alive connections, join the workers,
    and unlink the socket.  The socket file is removed on {e every} exit
    path. *)

type config = {
  socket_path : string;
  cache_size : int;
  jobs : int;
      (** workers serving requests concurrently, one per domain; the
          daemon holds exactly this many domains *)
  queue_capacity : int;
      (** accepted connections waiting for a worker before the daemon
          sheds *)
  request_timeout : float option;
      (** per-request deadline in seconds: socket read/write deadline
          plus a budget cap on the verification work; [None] = wait
          forever *)
}

val config :
  ?jobs:int ->
  ?queue_capacity:int ->
  ?request_timeout:float ->
  socket_path:string ->
  cache_size:int ->
  unit ->
  config
(** Smart constructor: [jobs] defaults to 1 (clamped to 1..64),
    [queue_capacity] to 64 (clamped to 1..4096); a non-positive
    [request_timeout] means none. *)

val default_socket : unit -> string
(** [$KPT_SOCKET] when set and non-empty, else
    [<tmpdir>/kpt-serve-<uid>.sock]. *)

val run : ?announce:bool -> config -> int
(** Serve until [shutdown] (returns 0) or SIGINT/SIGTERM (drains, then
    returns 130); a bind failure reports to stderr and returns 1.
    [announce] (default true) prints one "listening on …" line to stdout
    once the socket is ready — what scripts wait for. *)

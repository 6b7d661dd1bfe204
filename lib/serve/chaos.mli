(** Chaos-injection harness for the serve daemon: replay a
    generated-corpus slice against a {e real} daemon process through
    injected transport faults, asserting the serving layer's invariants —
    the daemon never crashes or wedges (it answers a ping and a healthy
    request after every fault), every surviving client receives either a
    byte-identical result or a structured well-formed error frame, and
    the socket path is always reclaimed (unlinked on clean exits,
    rebindable when SIGKILL leaves it stale).

    The adversary is purely client-side: raw file descriptors against
    the daemon's Unix socket, so it can truncate frames, dribble bytes
    slower than the deadline, slam connections shut mid-request, hold
    every worker while overflowing the queue, and kill the daemon
    process outright. *)

type fault =
  | Truncate  (** send a prefix of a request frame, then hang up *)
  | Garbage  (** send undecodable bytes where a request belongs *)
  | Partial_write  (** deliver a valid request in dribbled chunks *)
  | Disconnect  (** send a full request, close before the reply *)
  | Slow_loris  (** drip bytes forever, never completing a line *)
  | Flood  (** hold every worker, overflow the queue, expect sheds *)
  | Kill  (** SIGKILL the daemon mid-request; restart over the stale socket *)
  | Drain  (** SIGTERM: graceful drain, exit 130, socket unlinked *)

val all_faults : fault list
val fault_name : fault -> string
val fault_of_name : string -> fault option

type config = {
  exe : string;  (** the kpt binary to spawn as the daemon *)
  dir : string;  (** corpus directory of [.unity] specs *)
  specs : int;  (** slice size: first N specs, sorted by filename *)
  seed : int64;  (** drives fault shapes and truncation points *)
  socket : string;
  jobs : int;  (** the daemon's [--serve-jobs]: workers, and domains *)
  queue : int;  (** daemon queue capacity *)
  request_timeout : float;  (** daemon per-request deadline, seconds *)
  faults : fault list;
}

val run : Format.formatter -> config -> int
(** Execute the sweep; narrates per-fault progress and a final summary
    to the formatter.  Returns 0 when every invariant held, 1 on any
    violation, 2 when the corpus directory holds no specs.  Always
    reaps the daemon process it spawned. *)

val noise : socket:string -> seed:int64 -> rounds:int -> int
(** In-process fault injection against a live socket — truncated frames,
    garbage lines, instant disconnects — for running {e alongside}
    well-behaved clients (the chaos leg of [test_serve]'s concurrent
    serving test).  Returns the number of connections injected. *)

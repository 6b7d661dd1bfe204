(** In-process request handling: dispatch to {!Kpt_analysis.Driver}
    through the content-addressed result cache.  The daemon loop
    ({!Server}) and the benchmarks call this directly — the warm path is
    exactly one [handle] call, no socket required. *)

open Kpt_analysis

type t
(** A warm handler: the result cache plus request bookkeeping.  The
    engine pool is process-wide ({!Kpt_par}); the handler holds no
    engine state of its own — every request runs under a fresh
    {!Engine.t} inside the driver.  Thread-safe: cache lookups/inserts
    and the request counter are mutex-protected, so the server's worker
    domains share one handler; the verification work itself runs outside
    the lock. *)

val create : cache_size:int -> t

val dispatch : ?sink:Driver.sink -> Protocol.cmd -> Driver.options -> (string * string) list -> Driver.outcome
(** Run one verification command, bypassing the cache (also the CLI's
    in-process path and its [--serve-auto] fallback, through
    {!Client.run_local}).  @raise Invalid_argument on
    [Ping]/[Shutdown] — those are transport commands, answered by the
    server loop. *)

val handle : ?sink:Driver.sink -> t -> Protocol.request -> Driver.outcome * bool
(** [handle t req] answers [req] from the cache when possible; the
    boolean is [true] on a hit.  Only deterministic outcomes (exit codes
    0 and 1) are cached: usage errors and budget exhaustion (exit 3,
    wall-clock-dependent in general) are recomputed every time.  A hit
    streams no events regardless of [req.opts.trace]. *)

val requests : t -> int
(** Requests handled so far (cache hits included). *)

val cache_stats : t -> Cache.stats

val uptime_s : t -> int
(** Whole seconds since [create], on the monotonic bench clock — the
    [uptime_s] field of a [ping] reply. *)

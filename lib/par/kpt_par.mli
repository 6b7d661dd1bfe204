(** A persistent [Domain] pool for embarrassingly parallel batches.

    Built for the `kpt check FILE...` shape: a handful of independent,
    seconds-long symbolic workloads.  No work stealing, no deques — an
    atomic task counter feeds a fixed set of worker domains (the calling
    domain is one of them, so [jobs = 1] wakes nobody).

    {b Residency.}  Worker domains are spawned lazily on the first batch
    that needs them and then parked on a condition variable between
    batches, so repeated [try_map] calls pay [Domain.spawn] once per
    process, not once per batch.  A batch's effective width is
    [min jobs (Domain.recommended_domain_count ())]: every minor GC is
    a stop-the-world rendezvous of all the process's domains, parked
    ones included, so domains beyond the core count add stalls without
    adding throughput.  The clamp also bounds how many domains the
    pool ever spawns.  The resident domains are joined via [at_exit].

    {b Determinism.}  Results are ordered by {e input index}, never by
    completion order.  Each task runs under a fresh {!Engine.t} — its
    own {!Kpt_obs} metric context, and (because every {!Space.t} owns
    its BDD manager) its own symbolic tables — even at [jobs = 1], so
    per-task observable state is independent of the pool size {e and} of
    the hardware clamp.  After the batch drains, per-task metrics are
    merged into the caller's context in input order.

    {b Not} a general scheduler: tasks must not block on each other; a
    nested [try_map] from inside a task runs its items inline on the
    calling worker. *)

val recommended_jobs : unit -> int
(** The pool size to use when the user didn't say: the [KPT_JOBS]
    environment variable if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]; clamped to [1..128]. *)

val try_map :
  ?jobs:int ->
  ?task_budget:Kpt_predicate.Budget.limits ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn) result list
(** [try_map ~jobs f items] applies [f] to every item on a pool of
    [jobs] domains (default {!recommended_jobs}; clamped to
    [1..min 128 (length items)]).  The result list is index-aligned with
    the input.  A task that raises yields [Error exn] in its own slot
    and does not disturb its siblings — the property the batch driver
    relies on for "one unparsable file must not poison the rest".

    {b Pool-width contract.}  The resident pool grows to the widest
    width any batch has requested and never shrinks: a batch whose
    (clamped) width exceeds the current {!pool_size} spawns the missing
    helper domains, and a narrower batch simply wakes fewer of them —
    [-j] is never silently frozen at the first batch's value.  The one
    width reduction applied is the hardware clamp
    [min jobs (Domain.recommended_domain_count ())]; set
    [KPT_POOL_OVERSUBSCRIBE=1] to lift it, accepting the GC-rendezvous
    tax — results are identical either way, which is how the growth
    contract stays testable on a single-core host.

    [task_budget] arms a {e fresh} budget on the task's engine when the
    task starts (so a [--timeout] deadline bounds each task, not the
    batch); exhaustion surfaces as
    [Error (Kpt_predicate.Budget.Exhausted _)] in that task's slot.

    [Sys.Break] (Ctrl-C) is not isolated: it cancels the remaining
    tasks cooperatively and re-raises after all workers have drained —
    {!progress} then reports how far the batch got. *)

val progress : unit -> int * int
(** [(completed, total)] of the most recent {!try_map} batch — what the
    CLI's interrupt handler prints as the partial summary.  [(0, 0)]
    before any batch has run. *)

val pool_size : unit -> int
(** Number of resident helper domains spawned so far (0 until a batch
    actually needs helpers; never decreases while the process runs).
    Exposed so tests can pin the spawn-once-per-process behaviour. *)

val as_inline_worker : (unit -> 'a) -> 'a
(** [as_inline_worker f] runs [f] with the calling domain marked as a
    worker for the pool's purposes: any {!try_map} it runs executes
    inline on this domain instead of dispatching to the shared
    generation machinery (which supports one concurrent dispatcher
    only).  The serve daemon runs each request worker under it —
    request-level parallelism replaces batch-level there, and results
    are pool-size-independent by contract.  The previous mark is
    restored when [f] returns or raises, so a domain that ran a daemon
    gets its own pool back. *)

val inline_worker : unit -> bool
(** Whether the calling domain is marked: a pool helper, or inside
    {!as_inline_worker}. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!try_map}, re-raising the first failure (by input order) after the
    whole batch has drained. *)

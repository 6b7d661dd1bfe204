(* A persistent domain pool for embarrassingly parallel batches.

   The shape is deliberately simpler than a work-stealing scheduler:
   tasks are an array, the only shared mutable word is an atomic "next
   task" index, and each worker loops [fetch_and_add] until the array is
   drained.  For our workloads (one spec file per task, each seconds of
   BDD work) contention on one atomic is unmeasurable, and the absence
   of stealing makes the execution trivially deterministic in
   everything that matters: results land in a slot chosen by the task's
   {e input index}, never by completion order.

   Two costs dominated the old spawn-per-batch design, and both scale
   with {e requested} jobs rather than with useful parallelism:
   [Domain.spawn] itself (fresh minor heap and domain state per worker
   per batch), and every minor GC of every domain stalling on a
   stop-the-world rendezvous with all the domains the process holds.
   A parked domain is not exempt: a domain blocked in [Condition.wait]
   or [select] still joins each minor collection through its backup
   thread.  Measured on a 2-core box (OCaml 5.1.1), a loop that
   allocates 30 M list cells (345 minor GCs) took 0.093–0.116 s as the
   only domain, 0.108–0.129 s next to one domain blocked in
   [Condition.wait], and 0.175–0.202 s next to two: once domains
   outnumber cores, even idle ones tax every collection.  So the pool
   (a) keeps its worker domains alive across batches, parked in
   [Condition.wait], which pays [Domain.spawn] once, and (b) caps the
   domains it spawns and wakes for a batch at the hardware
   parallelism: [-j4] on a single-core host runs the batch on the
   calling domain alone — same results, same per-task budgets, no
   helper domain at all.

   Isolation contract: every task runs under a {e fresh} [Engine.t]
   ([Engine.use] installs its private metric context for the duration),
   even at [jobs = 1].  So a task's counters never depend on which
   domain ran it, how many pool slots existed, or what ran before it on
   the same domain — the property the differential tests pin.  After
   the join the per-task metrics are folded into the caller's context in
   input order. *)

open Kpt_predicate

let max_jobs = 128

let clamp_jobs j = if j < 1 then 1 else if j > max_jobs then max_jobs else j

let recommended_jobs () =
  match Sys.getenv_opt "KPT_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> clamp_jobs j
      | _ -> clamp_jobs (Domain.recommended_domain_count ()))
  | None -> clamp_jobs (Domain.recommended_domain_count ())

(* Batch progress, for the CLI's Ctrl-C handler: completed/total of the
   most recent [try_map] batch.  Workers bump [batch_done] as each task
   publishes; the main domain reads both after a [Sys.Break]. *)
let batch_total = Atomic.make 0
let batch_done = Atomic.make 0
let progress () = (Atomic.get batch_done, Atomic.get batch_total)

(* ---- the resident pool ---------------------------------------------------

   Batches are generations: the dispatcher installs a job closure, bumps
   [generation] and broadcasts; each parked worker wakes, claims one of
   the batch's [slots] (workers beyond the batch's width go straight
   back to sleep) and runs the closure to completion.  The closure owns
   all task state, so the pool itself carries no per-batch typing.  The
   calling domain always participates inline and then blocks until the
   participants of the current generation have drained — [try_map] stays
   fully synchronous, only the domains persist. *)

let pool_mutex = Mutex.create ()
let work_cond = Condition.create () (* a new generation was published *)
let idle_cond = Condition.create () (* a generation fully drained *)
let generation = ref 0
let current_job : (unit -> unit) ref = ref (fun () -> ())
let slots = ref 0 (* unclaimed participant slots of the current generation *)
let active = ref 0 (* participants still running the current generation *)
let workers : unit Domain.t list ref = ref []
let shutting_down = ref false

(* Nested [try_map] from inside a pool task must not block on the pool
   (its own domain is one of the participants the dispatcher would wait
   for) — it degrades to inline execution instead. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

(* The serve daemon's request workers run concurrently on domains of
   their own (worker 0 on the daemon's calling domain), and two of them
   dispatching batches onto the *same* generation machinery would
   corrupt [slots]/[active].  Each runs marked like a pool worker, so
   any [try_map] it reaches runs inline on its domain — request-level
   parallelism is the scaling axis there, and the results are
   pool-size-independent by contract anyway.  The mark is scoped: the
   calling domain outlives the daemon (a test, or the CLI's main
   domain), and must get its own pool back afterwards. *)
let inline_worker () = Domain.DLS.get in_worker

let as_inline_worker f =
  let prev = Domain.DLS.get in_worker in
  Domain.DLS.set in_worker true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker prev) f

let worker_loop () =
  Domain.DLS.set in_worker true;
  let my_gen = ref 0 in
  let rec loop () =
    Mutex.lock pool_mutex;
    while !generation = !my_gen && not !shutting_down do
      Condition.wait work_cond pool_mutex
    done;
    if !shutting_down then Mutex.unlock pool_mutex
    else begin
      my_gen := !generation;
      let participate = !slots > 0 in
      if participate then decr slots;
      let job = !current_job in
      Mutex.unlock pool_mutex;
      if participate then begin
        (try job () with _ -> ());
        Mutex.lock pool_mutex;
        decr active;
        if !active = 0 then Condition.broadcast idle_cond;
        Mutex.unlock pool_mutex
      end;
      loop ()
    end
  in
  loop ()

let shutdown_pool () =
  Mutex.lock pool_mutex;
  shutting_down := true;
  Condition.broadcast work_cond;
  Mutex.unlock pool_mutex;
  List.iter Domain.join !workers;
  workers := []

(* Grow the resident pool to [n] helper domains (never shrinks; spawns
   are the cost the pool exists to amortise).  First growth registers
   the at-exit join so the process never ends with parked domains. *)
let ensure_workers n =
  let have = List.length !workers in
  if have = 0 && n > 0 then at_exit shutdown_pool;
  for _ = have + 1 to n do
    workers := Domain.spawn worker_loop :: !workers
  done

let pool_size () = List.length !workers

(* The hardware clamp below is an escape-hatch away on purpose: the pool
   honours a wider request when the [KPT_POOL_OVERSUBSCRIBE] env var
   says so.  That is how the
   grow-on-mismatch contract — a later batch with a larger [-j] grows
   the resident pool instead of silently running at the first batch's
   width — stays testable on a single-core host, where the clamp would
   otherwise hide any growth. *)
let oversubscribe_env () =
  match Sys.getenv_opt "KPT_POOL_OVERSUBSCRIBE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let try_map ?jobs ?task_budget f items =
  let tasks = Array.of_list items in
  let n = Array.length tasks in
  if n = 0 then []
  else begin
    let jobs =
      clamp_jobs (match jobs with Some j -> j | None -> recommended_jobs ())
    in
    let jobs = min jobs n in
    (* Running domains beyond the hardware parallelism only adds GC
       rendezvous stalls — never throughput — so the batch's width is
       additionally clamped to the core count (see the header note),
       unless the environment opts out of the clamp. *)
    let hw_limit =
      if oversubscribe_env () then max_jobs else Domain.recommended_domain_count ()
    in
    let width = min jobs hw_limit in
    let helpers = if Domain.DLS.get in_worker then 0 else width - 1 in
    (* The caller's effective reorder policy travels with the batch: the
       per-task engines below are fresh (reorder [None]) and would
       otherwise fall back to the process-wide default, which belongs to
       the CLI's startup configuration — under a concurrent server each
       request pins its policy on its own engine instead. *)
    let reorder = Engine.reorder_mode (Engine.current ()) in
    Atomic.set batch_total n;
    Atomic.set batch_done 0;
    (* Slot [i] of both arrays belongs exclusively to the worker that
       won task [i]; publication to the caller is ordered by the drain
       barrier below (and, for the main domain's own tasks, by program
       order). *)
    let results : ('b, exn) result option array = Array.make n None in
    let engines : Engine.t option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let eng = Engine.create () in
          Engine.set_reorder_mode eng (Some reorder);
          let run () =
            (* The deadline is per task: armed when the task starts, not
               when the batch does, so [--timeout] bounds each file. *)
            match task_budget with
            | Some limits -> Engine.with_budget limits (fun () -> f tasks.(i))
            | None -> f tasks.(i)
          in
          let r =
            try Ok (Engine.use eng run) with
            | Sys.Break as b ->
                (* Ctrl-C: stop handing out tasks so every worker drains
                   promptly; the caller re-raises after the drain. *)
                Atomic.set next n;
                Error b
            | e -> Error e
          in
          results.(i) <- Some r;
          engines.(i) <- Some eng;
          Atomic.incr batch_done;
          loop ()
        end
      in
      loop ()
    in
    if helpers > 0 then begin
      ensure_workers helpers;
      Mutex.lock pool_mutex;
      current_job := worker;
      slots := helpers;
      active := helpers;
      incr generation;
      Condition.broadcast work_cond;
      Mutex.unlock pool_mutex
    end;
    let broke = ref false in
    (try worker () with Sys.Break -> Atomic.set next n; broke := true);
    if helpers > 0 then begin
      (* Drain barrier.  An asynchronous Sys.Break while parked here
         still must not abandon running helpers (they hold slots of the
         shared arrays): cancel the remaining tasks and keep waiting. *)
      Mutex.lock pool_mutex;
      let rec drain () =
        if !active > 0 then begin
          (try Condition.wait idle_cond pool_mutex with Sys.Break ->
            Atomic.set next n;
            broke := true);
          drain ()
        end
      in
      drain ();
      current_job := (fun () -> ());
      Mutex.unlock pool_mutex
    end;
    let into = Kpt_obs.Ctx.current () in
    Array.iter
      (function
        | Some eng -> Kpt_obs.Ctx.merge ~into (Engine.obs eng) | None -> ())
      engines;
    if
      !broke
      || Array.exists
           (function Some (Error Sys.Break) -> true | _ -> false)
           results
    then raise Sys.Break;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

let map ?jobs f items =
  let rs = try_map ?jobs f items in
  List.map (function Ok v -> v | Error e -> raise e) rs

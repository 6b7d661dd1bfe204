open Kpt_analysis

type t = {
  cache : Driver.outcome Cache.t;
  lock : Mutex.t;
      (* The LRU's hashtable and stamps are mutated even by [find], and
         [requests] is a plain int — with the server's worker domains
         all handling requests at once, every touch goes under this
         lock.  The verification work itself runs outside it. *)
  mutable requests : int;
  started_ns : int64;
}

let create ~cache_size =
  {
    cache = Cache.create ~capacity:cache_size;
    lock = Mutex.create ();
    requests = 0;
    started_ns = Kpt_obs.now_ns ();
  }

let dispatch ?sink cmd opts files =
  match (cmd : Protocol.cmd) with
  | Check -> Driver.check ?sink opts files
  | Lint -> Driver.lint ?sink opts files
  | Stats -> Driver.stats ?sink opts files
  | Solve -> Driver.solve ?sink opts files
  | Slice -> Driver.slice ?sink opts files
  | Ping | Shutdown ->
      invalid_arg "Handler.dispatch: ping/shutdown are transport commands"

(* Cache only the deterministic outcomes: 0 (ok) and 1 (findings).
   Usage errors are cheap to recompute, and a budget-exhausted answer
   (exit 3) depends on machine state whenever --timeout is involved —
   a faster moment deserves a fresh run, not a replayed failure. *)
let cacheable (o : Driver.outcome) = o.code = 0 || o.code = 1

let locked t f = Mutex.protect t.lock f

let handle ?sink t (req : Protocol.request) =
  let key = Protocol.cache_key req in
  let hit =
    locked t (fun () ->
        t.requests <- t.requests + 1;
        Cache.find t.cache key)
  in
  match hit with
  | Some outcome -> (outcome, true)
  | None ->
      (* Compute outside the lock: two workers racing on the same fresh
         key at worst both compute — the answers are byte-identical by
         the driver's contract, so the second [add] is a no-op in
         substance. *)
      let outcome = dispatch ?sink req.cmd req.opts req.files in
      if cacheable outcome then
        locked t (fun () -> Cache.add t.cache key outcome);
      (outcome, false)

let requests t = locked t (fun () -> t.requests)
let cache_stats t = locked t (fun () -> Cache.stats t.cache)

let uptime_s t =
  Int64.to_int (Int64.div (Int64.sub (Kpt_obs.now_ns ()) t.started_ns) 1_000_000_000L)

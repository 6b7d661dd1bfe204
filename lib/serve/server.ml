open Kpt_predicate

type config = {
  socket_path : string;
  cache_size : int;
  jobs : int;
  queue_capacity : int;
  request_timeout : float option;
}

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let config ?(jobs = 1) ?(queue_capacity = 64) ?request_timeout ~socket_path
    ~cache_size () =
  {
    socket_path;
    cache_size;
    jobs = clamp 1 64 jobs;
    queue_capacity = clamp 1 4096 queue_capacity;
    request_timeout =
      (match request_timeout with Some t when t > 0. -> Some t | _ -> None);
  }

let default_socket () =
  match Sys.getenv_opt "KPT_SOCKET" with
  | Some s when s <> "" -> s
  | _ ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "kpt-serve-%d.sock" (Unix.getuid ()))

(* ---- observability ---------------------------------------------------------

   The ping reply reads the live atomics below (a counter interned in
   one domain's metric context is not visible from another's), but the
   same movements also land in Kpt_obs so `--trace` consumers and the
   bench harness see the serving layer like any other. *)

let c_requests = Kpt_obs.counter "serve.requests"
let c_sheds = Kpt_obs.counter "serve.sheds"
let c_io_timeouts = Kpt_obs.counter "serve.io_timeouts"
let c_queue_peak = Kpt_obs.counter "serve.queue.depth.max"
let c_inflight_peak = Kpt_obs.counter "serve.inflight.max"

(* ---- binding, with stale-socket recovery ----------------------------------- *)

(* A socket path can outlive its daemon (SIGKILL, power loss).  Probe
   before unlinking: if something accepts the connection a daemon is
   alive and starting a second one is an error; any connection failure
   (ECONNREFUSED for a dead socket, ENOTSOCK/EPROTOTYPE for a plain
   file) marks the path stale and we reclaim it. *)
let bind_socket path =
  let live () =
    match Protocol.connect ~socket:path with
    | Ok probe ->
        (try Unix.close probe with Unix.Unix_error _ -> ());
        true
    | Error _ -> false
  in
  if Sys.file_exists path && live () then
    Error (Printf.sprintf "a kpt daemon is already listening on %s" path)
  else begin
    if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64
    with
    | () -> Ok sock
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e))
  end

(* ---- shared server state ---------------------------------------------------

   One bounded queue of accepted connections between the accepting main
   domain and [cfg.jobs] worker domains.  [lock] guards the queue, the
   connection registry and its [busy] flags; the hot-path counters the
   ping reply reports are plain atomics.  [stop] is the one field a
   signal handler touches — everything else drains cooperatively from
   the main domain once it is set. *)

type stop_mode = Wire_shutdown | Signal_drain

type conn = { cfd : Unix.file_descr; mutable busy : bool }

type state = {
  cfg : config;
  handler : Handler.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : Unix.file_descr Queue.t;
  mutable qdepth : int;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  stop : stop_mode option Atomic.t;
  in_flight : int Atomic.t;
  sheds : int Atomic.t;
  io_timeouts : int Atomic.t;
  workers_done : int Atomic.t;
}

let make_state cfg =
  {
    cfg;
    handler = Handler.create ~cache_size:cfg.cache_size;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    qdepth = 0;
    conns = Hashtbl.create 16;
    next_conn = 0;
    stop = Atomic.make None;
    in_flight = Atomic.make 0;
    sheds = Atomic.make 0;
    io_timeouts = Atomic.make 0;
    workers_done = Atomic.make 0;
  }

let locked st f = Mutex.protect st.lock f

let request_stop st mode =
  ignore (Atomic.compare_and_set st.stop None (Some mode))

let stopping st = Atomic.get st.stop <> None

let log fmt =
  Format.eprintf ("kpt-serve: " ^^ fmt ^^ "@.")

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- request handling ------------------------------------------------------ *)

let daemon_fields st =
  let c = Handler.cache_stats st.handler in
  let looked_up = c.Cache.hits + c.Cache.misses in
  let hit_pct = if looked_up = 0 then 0 else 100 * c.Cache.hits / looked_up in
  [
    ("requests", Handler.requests st.handler);
    ("uptime_s", Handler.uptime_s st.handler);
    ("serve_jobs", st.cfg.jobs);
    ("queue_capacity", st.cfg.queue_capacity);
    ("queue_depth", locked st (fun () -> st.qdepth));
    ("in_flight", Atomic.get st.in_flight);
    ("sheds", Atomic.get st.sheds);
    ("io_timeouts", Atomic.get st.io_timeouts);
    ("cache_entries", c.Cache.entries);
    ("cache_capacity", c.Cache.capacity);
    ("cache_hits", c.Cache.hits);
    ("cache_misses", c.Cache.misses);
    ("cache_hit_pct", hit_pct);
    ("cache_evictions", c.Cache.evictions);
    ("pool_size", Kpt_par.pool_size ());
  ]

(* The server-side deadline rides the existing budget machinery: the
   request's own --timeout is kept when it is tighter, so a served
   request can never outlive the daemon's patience but may well ask for
   less of it. *)
let capped_limits cfg (l : Budget.limits) =
  match cfg.request_timeout with
  | None -> l
  | Some t ->
      let cap = Budget.timeout_of_seconds t in
      let timeout_ns =
        match l.Budget.timeout_ns with
        | Some own when own < cap -> Some own
        | _ -> Some cap
      in
      { l with Budget.timeout_ns }

let send fd frame = Protocol.write_frame fd frame

let handle_line st fd line =
  match Json.of_string line with
  | exception Json.Parse_error msg ->
      send fd
        (Protocol.Error_frame
           {
             id = 0;
             exit_code = 2;
             kind = Protocol.Generic;
             message = "malformed request: " ^ msg;
           });
      `Continue
  | j -> (
      let id =
        Option.value ~default:0 (Option.bind (Json.member "id" j) Json.to_int)
      in
      match Protocol.version_of_json j with
      | Some v when v <> Protocol.version ->
          send fd
            (Protocol.Error_frame
               {
                 id;
                 exit_code = 2;
                 kind = Protocol.Version_mismatch;
                 message =
                   Printf.sprintf
                     "protocol version mismatch: the client speaks v%d, this \
                      daemon speaks v%d"
                     v Protocol.version;
               });
          `Continue
      | _ -> (
          match Protocol.request_of_json j with
          | Error msg ->
              send fd
                (Protocol.Error_frame
                   {
                     id;
                     exit_code = 2;
                     kind = Protocol.Generic;
                     message = "bad request: " ^ msg;
                   });
              `Continue
          | Ok req -> (
              match req.Protocol.cmd with
              | Protocol.Ping ->
                  send fd
                    (Protocol.Result
                       {
                         id = req.Protocol.id;
                         exit_code = 0;
                         cached = false;
                         out = "kpt-serve: alive\n";
                         err = "";
                         daemon = daemon_fields st;
                       });
                  `Continue
              | Protocol.Shutdown ->
                  send fd
                    (Protocol.Result
                       {
                         id = req.Protocol.id;
                         exit_code = 0;
                         cached = false;
                         out = "kpt-serve: shutting down\n";
                         err = "";
                         daemon = daemon_fields st;
                       });
                  `Stop Wire_shutdown
              | _ -> (
                  let req =
                    {
                      req with
                      Protocol.opts =
                        {
                          req.Protocol.opts with
                          Kpt_analysis.Driver.limits =
                            capped_limits st.cfg
                              req.Protocol.opts.Kpt_analysis.Driver.limits;
                        };
                    }
                  in
                  let sink =
                    if req.Protocol.opts.Kpt_analysis.Driver.trace then
                      Some
                        (fun name fields ->
                          send fd
                            (Protocol.Event { id = req.Protocol.id; name; fields }))
                    else None
                  in
                  Kpt_obs.incr c_requests;
                  match
                    Kpt_obs.time "serve.request" (fun () ->
                        Handler.handle ?sink st.handler req)
                  with
                  | outcome, cached ->
                      send fd
                        (Protocol.Result
                           {
                             id = req.Protocol.id;
                             exit_code = outcome.Kpt_analysis.Driver.code;
                             cached;
                             out = outcome.Kpt_analysis.Driver.out;
                             err = outcome.Kpt_analysis.Driver.err;
                             daemon = [];
                           });
                      `Continue
                  | exception Sys.Break ->
                      (try
                         send fd
                           (Protocol.Error_frame
                              {
                                id = req.Protocol.id;
                                exit_code = Protocol.exit_interrupted;
                                kind = Protocol.Interrupted;
                                message =
                                  "interrupted: the daemon is shutting down";
                              })
                       with Sys_error _ | Unix.Unix_error _ -> ());
                      `Stop Signal_drain))))

(* ---- worker domains -------------------------------------------------------- *)

(* Pop the next accepted connection, or [None] once the server is
   stopping (queued connections left at that point belong to the drain,
   which answers them with exit-130 frames). *)
let pop st =
  locked st (fun () ->
      let rec wait () =
        if st.qdepth = 0 && not (stopping st) then begin
          Condition.wait st.nonempty st.lock;
          wait ()
        end
      in
      wait ();
      if stopping st || st.qdepth = 0 then None
      else begin
        st.qdepth <- st.qdepth - 1;
        Some (Queue.pop st.queue)
      end)

let register st fd =
  locked st (fun () ->
      let key = st.next_conn in
      st.next_conn <- key + 1;
      let c = { cfd = fd; busy = false } in
      Hashtbl.replace st.conns key c;
      (key, c))

let unregister st key = locked st (fun () -> Hashtbl.remove st.conns key)

let set_busy st c v = locked st (fun () -> c.busy <- v)

let serve_connection st c =
  let fd = c.cfd in
  (match st.cfg.request_timeout with
  | Some t -> Protocol.set_timeout fd Unix.SO_SNDTIMEO t
  | None -> ());
  let r = Protocol.make_reader fd in
  let rec loop () =
    set_busy st c false;
    if stopping st then ()
    else
      let deadline =
        Option.map (fun t -> Unix.gettimeofday () +. t) st.cfg.request_timeout
      in
      match Protocol.read_line r ~deadline with
      | `Eof -> ()
      | `Timeout ->
          Atomic.incr st.io_timeouts;
          Kpt_obs.incr c_io_timeouts;
          let t = Option.value ~default:0. st.cfg.request_timeout in
          (try
             send fd
               (Protocol.Error_frame
                  {
                    id = 0;
                    exit_code = Protocol.exit_io_timeout;
                    kind = Protocol.Timeout;
                    message =
                      Printf.sprintf
                        "request deadline: no complete request line within %gs"
                        t;
                  })
           with Sys_error _ | Unix.Unix_error _ -> ())
      | `Line line when String.trim line = "" -> loop ()
      | `Line line -> (
          set_busy st c true;
          Atomic.incr st.in_flight;
          Kpt_obs.record_max c_inflight_peak (Atomic.get st.in_flight);
          let verdict =
            match handle_line st fd line with
            | v -> v
            | exception (Sys_error _ | Unix.Unix_error _) ->
                (* the client broke the connection mid-request or
                   mid-reply; the daemon survives and this worker moves
                   on to the next connection *)
                log "client disconnected mid-request; dropping the connection";
                `Close
          in
          Atomic.decr st.in_flight;
          match verdict with
          | `Continue -> loop ()
          | `Close -> ()
          | `Stop mode ->
              request_stop st mode;
              (* wake parked siblings promptly; the main domain's poll
                 loop notices [stop] within its poll interval anyway *)
              locked st (fun () -> Condition.broadcast st.nonempty))
  in
  loop ()

let worker st () =
  (* Serve workers look like pool workers to Kpt_par: any nested
     [try_map] a request reaches runs inline on this domain, because the
     pool's generation machinery supports one concurrent dispatcher
     only.  Results are pool-size-independent by contract, so the served
     bytes do not change — request-level parallelism is the axis that
     scales here. *)
  Kpt_par.mark_inline_worker ();
  let eng = Engine.create () in
  Engine.use eng (fun () ->
      let rec next () =
        match pop st with
        | None -> ()
        | Some fd ->
            let key, c = register st fd in
            (try serve_connection st c
             with e ->
               log "worker recovered from unexpected exception: %s"
                 (Printexc.to_string e));
            unregister st key;
            close_quiet fd;
            next ()
      in
      next ());
  Atomic.incr st.workers_done

(* ---- accepting, shedding, draining ----------------------------------------- *)

let shed st fd =
  Atomic.incr st.sheds;
  Kpt_obs.incr c_sheds;
  Protocol.set_timeout fd Unix.SO_SNDTIMEO 1.0;
  (try
     send fd
       (Protocol.Error_frame
          {
            id = 0;
            exit_code = Protocol.exit_overloaded;
            kind = Protocol.Overloaded;
            message =
              Printf.sprintf
                "overloaded: the request queue is full (%d queued, %d in \
                 flight); retry with backoff"
                st.cfg.queue_capacity (Atomic.get st.in_flight);
          })
   with Sys_error _ | Unix.Unix_error _ -> ());
  close_quiet fd

let enqueue st fd =
  let accepted =
    locked st (fun () ->
        if st.qdepth >= st.cfg.queue_capacity then false
        else begin
          Queue.push fd st.queue;
          st.qdepth <- st.qdepth + 1;
          Kpt_obs.record_max c_queue_peak st.qdepth;
          Condition.signal st.nonempty;
          true
        end)
  in
  if not accepted then shed st fd

(* The accept loop polls at 100ms so a stop requested from anywhere — a
   signal handler's atomic write, a worker that answered [shutdown] —
   turns into a drain without any self-connect tricks, regardless of
   which domain the signal landed on. *)
let accept_loop st lsock =
  let rec go () =
    if not (stopping st) then begin
      (match Unix.select [ lsock ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept lsock with
          | fd, _ -> enqueue st fd
          | exception
              Unix.Unix_error
                ( (Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED),
                  _,
                  _ ) ->
            ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(* Drain: the accept loop has exited, so no new work arrives.  Answer
   everything still queued with a structured exit-130 frame, wake parked
   workers, and keep nudging idle connections with [shutdown] until
   every worker has come home — in-flight requests finish (bounded by
   their armed budgets when --request-timeout is set), blocked reads see
   EOF.  The nudge loop closes the race where a worker picks a
   connection up just as the drain scans the registry. *)
let drain st workers =
  locked st (fun () -> Condition.broadcast st.nonempty);
  let queued =
    locked st (fun () ->
        let q = Queue.fold (fun acc fd -> fd :: acc) [] st.queue in
        Queue.clear st.queue;
        st.qdepth <- 0;
        List.rev q)
  in
  List.iter
    (fun fd ->
      Protocol.set_timeout fd Unix.SO_SNDTIMEO 1.0;
      (try
         send fd
           (Protocol.Error_frame
              {
                id = 0;
                exit_code = Protocol.exit_interrupted;
                kind = Protocol.Interrupted;
                message = "interrupted: the daemon is shutting down";
              })
       with Sys_error _ | Unix.Unix_error _ -> ());
      close_quiet fd)
    queued;
  let n = List.length workers in
  while Atomic.get st.workers_done < n do
    locked st (fun () ->
        Hashtbl.iter
          (fun _ c ->
            if not c.busy then
              try Unix.shutdown c.cfd Unix.SHUTDOWN_RECEIVE
              with Unix.Unix_error _ -> ())
          st.conns;
        Condition.broadcast st.nonempty);
    Unix.sleepf 0.02
  done;
  List.iter Domain.join workers

(* ---- the daemon ------------------------------------------------------------ *)

let run ?(announce = true) cfg =
  (* a client hanging up mid-reply must surface as EPIPE on the write,
     not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match bind_socket cfg.socket_path with
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      1
  | Ok lsock ->
      let st = make_state cfg in
      (* SIGINT/SIGTERM ask for a drain; the handlers only flip the
         atomic — every consequence runs cooperatively on the main
         domain, which notices within one poll interval. *)
      let on_signal _ = request_stop st Signal_drain in
      let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
      let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
      let restore () =
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigterm prev_term
      in
      if announce then
        Format.printf "kpt-serve: listening on %s (cache %d, jobs %d, queue %d%s)@."
          cfg.socket_path cfg.cache_size cfg.jobs cfg.queue_capacity
          (match cfg.request_timeout with
          | Some t -> Printf.sprintf ", deadline %gs" t
          | None -> "");
      let workers = List.init cfg.jobs (fun _ -> Domain.spawn (worker st)) in
      let cleanup () =
        restore ();
        (try Unix.close lsock with Unix.Unix_error _ -> ());
        try Sys.remove cfg.socket_path with Sys_error _ -> ()
      in
      (* the daemon's own numbers (sheds, queue peaks) accumulate in a
         private engine context, not the process root *)
      let eng = Engine.create () in
      (match Engine.use eng (fun () -> accept_loop st lsock) with
      | () ->
          drain st workers;
          cleanup ();
          if announce then log "drained; socket removed";
          (match Atomic.get st.stop with
          | Some Signal_drain -> 130
          | Some Wire_shutdown | None -> 0)
      | exception e ->
          (* an unexpected exception on the accept path: stop the
             workers before propagating, so the process does not hang on
             parked domains *)
          request_stop st Signal_drain;
          (try drain st workers with _ -> ());
          cleanup ();
          raise e)

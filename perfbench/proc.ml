(* Processes the benchmark starts, and what it reads about them from
   /proc.  Every child is registered so that an early exit still stops
   and reaps it: a run leaves no process behind. *)

open Kpt_serve

let children : int list ref = ref []

(* Wait for [pid] up to [grace] seconds, then SIGKILL it and wait. *)
let reap ~grace pid =
  let deadline = Unix.gettimeofday () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  children := List.filter (( <> ) pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          reap ~grace:5. pid)
        !children)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The "VmHWM:   1234 kB" line of /proc/<pid>/status, in MiB. *)
let peak_rss_mb pid =
  read_file (Printf.sprintf "/proc/%s/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.

(* Nanoseconds [pid] has spent on a CPU, summed over its threads (the
   first field of each schedstat): a daemon's worker domains are
   threads of their own. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> acc +. Scanf.sscanf s "%f" Fun.id
      | exception Sys_error _ -> acc)
    0. (Sys.readdir dir)

(* ---- the kpt serve daemon --------------------------------------------------- *)

type daemon = {
  pid : int;
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pending : string;
  mutable next_id : int;
}

let read_line d =
  let rec go () =
    match String.index_opt d.pending '\n' with
    | Some i ->
        let line = String.sub d.pending 0 i in
        d.pending <- String.sub d.pending (i + 1) (String.length d.pending - i - 1);
        line
    | None -> (
        match Unix.read d.fd d.chunk 0 (Bytes.length d.chunk) with
        | 0 -> failwith "the daemon closed the connection"
        | n ->
            d.pending <- d.pending ^ Bytes.sub_string d.chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* One request on the keep-alive connection, split at the four client
   steps: encode, send, wait for the reply line, decode it. *)
let request d req =
  let line =
    Trace.span "client.encode" (fun () -> Json.to_string (Protocol.request_to_json req))
  in
  Trace.span "client.send" (fun () -> Protocol.write_line d.fd line);
  let frame = Trace.span "client.wait" (fun () -> read_line d) in
  Trace.span "client.decode" (fun () -> Protocol.response_of_json (Json.of_string frame))

let control d cmd =
  d.next_id <- d.next_id + 1;
  request d
    { Protocol.id = d.next_id; cmd; files = []; opts = Kpt_analysis.Driver.default_options }

(* The daemon's counters (requests, cache hits, sheds, ...), read over
   the same connection: one worker serves one connection, so a ping
   never waits behind another client. *)
let ping d =
  match control d Protocol.Ping with
  | Ok (Protocol.Result { daemon; _ }) -> daemon
  | _ -> failwith "ping: unexpected reply"

(* Start [kpt serve] on [socket].  Its "listening" line is appended to
   kpt-serve.log beside the socket, so that our standard output stays
   ours. *)
let spawn ~kpt ~socket =
  let log =
    Unix.openfile
      (Filename.concat (Filename.dirname socket) "kpt-serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process kpt
          [| kpt; "serve"; "--socket"; socket; "--serve-jobs"; "1" |]
          Unix.stdin log Unix.stderr)
  in
  children := pid :: !children;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
          children := List.filter (( <> ) pid) !children;
          failwith (Printf.sprintf "%s serve exited before listening on %s" kpt socket)
        end;
        if Unix.gettimeofday () > deadline then
          failwith (Printf.sprintf "%s serve did not listen on %s within 30s" kpt socket);
        Unix.sleepf 0.002;
        connect ()
  in
  let d = { pid; fd = connect (); chunk = Bytes.create 65536; pending = ""; next_id = 0 } in
  ignore (ping d);
  d

let stop d =
  (try ignore (control d Protocol.Shutdown) with Failure _ | Unix.Unix_error _ -> ());
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  reap ~grace:10. d.pid

(* Run [argv] to completion, returning its exit code and (when
   [capture]) its standard output; otherwise it shares ours. *)
let run ~capture argv =
  let out_r, out_w =
    if capture then Unix.pipe ~cloexec:true () else (Unix.stdin, Unix.stdout)
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out_w Unix.stderr in
  children := pid :: !children;
  let out =
    if capture then begin
      Unix.close out_w;
      let ic = Unix.in_channel_of_descr out_r in
      let s = In_channel.input_all ic in
      close_in ic;
      s
    end
    else ""
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  children := List.filter (( <> ) pid) !children;
  ((match status with Unix.WEXITED c -> c | _ -> 255), out)

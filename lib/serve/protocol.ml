open Kpt_predicate
open Kpt_analysis

let version = 1

(* ---- exit codes the transport layer owns -----------------------------------

   The verification exit codes (0 ok / 1 findings / 2 usage / 3 budget)
   cross the wire unchanged; these two belong to the serving layer
   itself.  75 is sysexits' EX_TEMPFAIL — the canonical "try again
   later", which is exactly what a shed request is.  4 is the I/O
   deadline: the daemon cut the connection because the client was too
   slow to speak, which is neither a verification verdict nor a usage
   error. *)
let exit_overloaded = 75
let exit_io_timeout = 4
let exit_interrupted = 130

(* Machine-readable failure classes, so clients can decide what to do
   (retry, upgrade, give up) without parsing prose.  An absent kind on
   the wire decodes as [Generic] — frames from older daemons stay
   readable. *)
type error_kind = Generic | Overloaded | Timeout | Version_mismatch | Interrupted

let error_kind_to_string = function
  | Generic -> "generic"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Version_mismatch -> "version_mismatch"
  | Interrupted -> "interrupted"

let error_kind_of_string = function
  | "overloaded" -> Overloaded
  | "timeout" -> Timeout
  | "version_mismatch" -> Version_mismatch
  | "interrupted" -> Interrupted
  | _ -> Generic

type cmd = Check | Lint | Stats | Solve | Slice | Ping | Shutdown

let cmd_to_string = function
  | Check -> "check"
  | Lint -> "lint"
  | Stats -> "stats"
  | Solve -> "solve"
  | Slice -> "slice"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

let cmd_of_string = function
  | "check" -> Some Check
  | "lint" -> Some Lint
  | "stats" -> Some Stats
  | "solve" -> Some Solve
  | "slice" -> Some Slice
  | "ping" -> Some Ping
  | "shutdown" -> Some Shutdown
  | _ -> None

type request = {
  id : int;
  cmd : cmd;
  files : (string * string) list;
  opts : Driver.options;
}

(* ---- options <-> JSON ------------------------------------------------------ *)

let reorder_to_string = function
  | Engine.Reorder_auto -> "auto"
  | Engine.Reorder_off -> "off"

let reorder_of_string = function
  | "auto" -> Some Engine.Reorder_auto
  | "off" -> Some Engine.Reorder_off
  | _ -> None

(* 0 = unset for the numeric options, so the encoding needs no nulls *)
let opts_to_json (o : Driver.options) =
  Json.Obj
    [
      ("jobs", Json.Int (match o.jobs with Some j -> j | None -> 0));
      ("json", Json.Bool o.json);
      ("warn_error", Json.Bool o.warn_error);
      ("quiet", Json.Bool o.quiet);
      ("slice", Json.Bool o.slice);
      ("semantic", Json.Bool o.semantic);
      ("timings", Json.Bool o.timings);
      ("trace", Json.Bool o.trace);
      ("wrt", Json.List (List.map (fun s -> Json.String s) o.wrt));
      ( "timeout_ns",
        Json.Int
          (match o.limits.Budget.timeout_ns with
          | Some t -> Int64.to_int t
          | None -> 0) );
      ("fuel", Json.Int (match o.limits.Budget.fuel with Some f -> f | None -> 0));
      ( "max_nodes",
        Json.Int (match o.limits.Budget.max_nodes with Some m -> m | None -> 0) );
      ("reorder", Json.String (reorder_to_string o.reorder));
    ]

let opts_of_json j : (Driver.options, string) result =
  let bool_f k = Option.bind (Json.member k j) Json.to_bool |> Option.value ~default:false in
  let int_f k = Option.bind (Json.member k j) Json.to_int |> Option.value ~default:0 in
  let pos i = if i > 0 then Some i else None in
  let wrt =
    match Option.bind (Json.member "wrt" j) Json.to_list with
    | Some l -> List.filter_map Json.to_str l
    | None -> []
  in
  let reorder_s =
    Option.bind (Json.member "reorder" j) Json.to_str |> Option.value ~default:"off"
  in
  match reorder_of_string reorder_s with
  | None -> Error (Printf.sprintf "unknown reorder mode %S" reorder_s)
  | Some reorder ->
      Ok
        {
          Driver.jobs = pos (int_f "jobs");
          json = bool_f "json";
          warn_error = bool_f "warn_error";
          quiet = bool_f "quiet";
          slice = bool_f "slice";
          semantic = bool_f "semantic";
          timings = bool_f "timings";
          trace = bool_f "trace";
          wrt;
          limits =
            Budget.limits
              ?timeout_ns:(Option.map Int64.of_int (pos (int_f "timeout_ns")))
              ?fuel:(pos (int_f "fuel"))
              ?max_nodes:(pos (int_f "max_nodes"))
              ();
          reorder;
        }

(* ---- requests -------------------------------------------------------------- *)

let files_to_json files =
  Json.List
    (List.map
       (fun (path, source) ->
         Json.Obj [ ("path", Json.String path); ("source", Json.String source) ])
       files)

let request_to_json r =
  Json.Obj
    [
      ("v", Json.Int version);
      ("id", Json.Int r.id);
      ("cmd", Json.String (cmd_to_string r.cmd));
      ("files", files_to_json r.files);
      ("opts", opts_to_json r.opts);
    ]

let version_of_json j = Option.bind (Json.member "v" j) Json.to_int

let request_of_json j : (request, string) result =
  let ( let* ) = Result.bind in
  let* () =
    match version_of_json j with
    | Some v when v = version -> Ok ()
    | Some v -> Error (Printf.sprintf "protocol version %d, this daemon speaks %d" v version)
    | None -> Error "missing protocol version field \"v\""
  in
  let id = Option.bind (Json.member "id" j) Json.to_int |> Option.value ~default:0 in
  let* cmd =
    match Option.bind (Json.member "cmd" j) Json.to_str with
    | None -> Error "missing command field \"cmd\""
    | Some s -> (
        match cmd_of_string s with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown command %S" s))
  in
  let* files =
    match Json.member "files" j with
    | None -> Ok []
    | Some (Json.List l) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | f :: rest -> (
              match
                ( Option.bind (Json.member "path" f) Json.to_str,
                  Option.bind (Json.member "source" f) Json.to_str )
              with
              | Some p, Some s -> go ((p, s) :: acc) rest
              | _ -> Error "malformed files entry: need string \"path\" and \"source\"")
        in
        go [] l
    | Some _ -> Error "malformed \"files\" field: expected a list"
  in
  let* opts =
    match Json.member "opts" j with
    | Some o -> opts_of_json o
    | None -> Ok Driver.default_options
  in
  Ok { id; cmd; files; opts }

(* ---- responses ------------------------------------------------------------- *)

type response =
  | Result of {
      id : int;
      exit_code : int;
      cached : bool;
      out : string;
      err : string;
      daemon : (string * int) list;
    }
  | Event of { id : int; name : string; fields : (string * int) list }
  | Error_frame of {
      id : int;
      exit_code : int;
      kind : error_kind;
      message : string;
    }

let response_to_json = function
  | Result { id; exit_code; cached; out; err; daemon } ->
      Json.Obj
        ([
           ("id", Json.Int id);
           ("type", Json.String "result");
           ("exit", Json.Int exit_code);
           ("cached", Json.Bool cached);
           ("stdout", Json.String out);
           ("stderr", Json.String err);
         ]
        @
        if daemon = [] then []
        else [ ("daemon", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) daemon)) ])
  | Event { id; name; fields } ->
      Json.Obj
        [
          ("id", Json.Int id);
          ("type", Json.String "event");
          ("name", Json.String name);
          ("fields", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) fields));
        ]
  | Error_frame { id; exit_code; kind; message } ->
      Json.Obj
        [
          ("id", Json.Int id);
          ("type", Json.String "error");
          ("exit", Json.Int exit_code);
          ("kind", Json.String (error_kind_to_string kind));
          ("error", Json.String message);
        ]

let response_of_json j : (response, string) result =
  let id = Option.bind (Json.member "id" j) Json.to_int |> Option.value ~default:0 in
  let int_fields k =
    match Option.bind (Json.member k j) (fun v -> match v with Json.Obj kvs -> Some kvs | _ -> None) with
    | Some kvs -> List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.to_int v)) kvs
    | None -> []
  in
  match Option.bind (Json.member "type" j) Json.to_str with
  | Some "result" ->
      Ok
        (Result
           {
             id;
             exit_code =
               Option.bind (Json.member "exit" j) Json.to_int |> Option.value ~default:0;
             cached =
               Option.bind (Json.member "cached" j) Json.to_bool
               |> Option.value ~default:false;
             out =
               Option.bind (Json.member "stdout" j) Json.to_str |> Option.value ~default:"";
             err =
               Option.bind (Json.member "stderr" j) Json.to_str |> Option.value ~default:"";
             daemon = int_fields "daemon";
           })
  | Some "event" ->
      Ok
        (Event
           {
             id;
             name =
               Option.bind (Json.member "name" j) Json.to_str |> Option.value ~default:"";
             fields = int_fields "fields";
           })
  | Some "error" ->
      Ok
        (Error_frame
           {
             id;
             exit_code =
               Option.bind (Json.member "exit" j) Json.to_int |> Option.value ~default:1;
             kind =
               Option.bind (Json.member "kind" j) Json.to_str
               |> Option.value ~default:"generic" |> error_kind_of_string;
             message =
               Option.bind (Json.member "error" j) Json.to_str |> Option.value ~default:"";
           })
  | Some t -> Error (Printf.sprintf "unknown frame type %S" t)
  | None -> Error "missing frame type"

(* ---- the wire itself -------------------------------------------------------

   Both sides used to write through buffered out_channels, whose flush
   can drop bytes silently on a partial write to a socket.  Every frame
   now goes through one EINTR-safe loop over
   [Unix.single_write_substring]: a short write resumes at the unsent
   suffix, EINTR retries, and every other error (EPIPE from a vanished
   peer, EAGAIN from an armed SO_SNDTIMEO deadline) propagates to the
   caller — a frame is either delivered whole or the connection is known
   broken.  [single_write] (one write(2) call, true byte count) is the
   only safe primitive here: [Unix.write]'s internal chunking loop
   raises on EINTR even after partial progress, so retrying it from the
   old offset would duplicate bytes. *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.single_write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_line fd line = write_all fd (line ^ "\n")

(* the frame and its newline are built in one buffer, never copied for
   the newline *)
let write_frame fd frame = write_all fd (Json.to_line (response_to_json frame))

(* ---- the content address --------------------------------------------------- *)

(* Length-prefixed fields, so no two requests share an encoding: the
   version, the command, the file count, each path and source, then the
   canonical options object.  The sources are copied once into the
   digest's input and never escaped. *)
let cache_key r =
  (* transport bookkeeping ([id]), pool width ([jobs] — the output is
     pool-size-independent by contract) and [trace] (auxiliary event
     stream) do not address the answer *)
  let key_opts = { r.opts with Driver.jobs = None; trace = false } in
  let b =
    Buffer.create
      (List.fold_left (fun n (p, s) -> n + String.length p + String.length s + 24) 512 r.files)
  in
  let field s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  field (string_of_int version);
  field (cmd_to_string r.cmd);
  field (string_of_int (List.length r.files));
  List.iter
    (fun (path, source) ->
      field path;
      field source)
    r.files;
  Json.to_buffer b (opts_to_json key_opts);
  Digest.string (Buffer.contents b)

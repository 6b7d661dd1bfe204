(** The serve wire protocol: newline-delimited JSON frames over a Unix
    domain socket.

    {b Requests} (client → daemon), one per line:
    {v
    {"v":1, "id":1, "cmd":"check",
     "files":[{"path":"transmit.unity", "source":"program …"}],
     "opts":{"jobs":0, "json":false, "warn_error":false, "quiet":false,
             "slice":false, "semantic":false, "timings":false,
             "trace":false, "wrt":[], "timeout_ns":0, "fuel":0,
             "max_nodes":0, "reorder":"off"}}
    v}
    Spec {e sources} travel in the request (the daemon never reads the
    filesystem), so the daemon may run in any directory and the cache
    key can cover the exact bytes verified.  [0] means "unset" for the
    numeric options; ["reorder"] is ["auto"] or ["off"], and any other
    value makes the request malformed.

    {b Responses} (daemon → client), one frame per line; [event] frames
    stream before the final [result]/[error] frame of the same [id]:
    {v
    {"id":1, "type":"result", "exit":0, "cached":false,
     "stdout":"…", "stderr":"…"}
    {"id":1, "type":"event", "name":"sst.iter", "fields":{"n":3}}
    {"id":1, "type":"error", "exit":2, "error":"malformed request: …"}
    v}

    The [exit] of a [result] is exactly the CLI exit code the direct
    command would have returned; [stdout]/[stderr] are byte-identical to
    the direct command's streams ({!Kpt_analysis.Driver} is the single
    implementation behind both). *)

open Kpt_analysis

val version : int

val exit_overloaded : int
(** 75 (sysexits EX_TEMPFAIL): the daemon shed this request because its
    bounded queue was full.  The one transport exit code a client may
    retry on. *)

val exit_io_timeout : int
(** 4: the daemon disconnected the client for blowing the socket-level
    read/write deadline (slow-loris protection). *)

val exit_interrupted : int
(** 130: the daemon is shutting down; queued and in-flight work is
    answered with this during a drain. *)

(** Machine-readable failure classes on [Error_frame]s.  An absent
    ["kind"] field decodes as [Generic], so frames from older daemons
    stay readable. *)
type error_kind = Generic | Overloaded | Timeout | Version_mismatch | Interrupted

val error_kind_to_string : error_kind -> string
val error_kind_of_string : string -> error_kind

type cmd = Check | Lint | Stats | Solve | Slice | Ping | Shutdown

val cmd_to_string : cmd -> string
val cmd_of_string : string -> cmd option

type request = {
  id : int;
  cmd : cmd;
  files : (string * string) list;  (** (path, source bytes) *)
  opts : Driver.options;
}

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result

val version_of_json : Json.t -> int option
(** The ["v"] field alone, so the server can distinguish a version skew
    (answer [Version_mismatch], naming both versions) from a frame that
    is merely malformed. *)

type response =
  | Result of {
      id : int;
      exit_code : int;
      cached : bool;
      out : string;
      err : string;
      daemon : (string * int) list;
          (** daemon introspection (requests served, cache stats, pool
              size); non-empty only on [ping] replies *)
    }
  | Event of { id : int; name : string; fields : (string * int) list }
  | Error_frame of {
      id : int;
      exit_code : int;
      kind : error_kind;
      message : string;
    }

val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string: short writes resume at the unsent
    suffix, EINTR retries.  Any other [Unix.Unix_error] (EPIPE, or
    EAGAIN when an SO_SNDTIMEO deadline is armed) propagates — a frame
    is delivered whole or the connection is known broken. *)

val write_line : Unix.file_descr -> string -> unit
(** [write_all] of the line plus the frame-terminating newline. *)

val write_frame : Unix.file_descr -> response -> unit
(** Encode one response frame and write it with its newline. *)

(** {2 Reading frames}

    The one frame reader of the wire: the daemon reads requests with it,
    {!Client} (and through it the chaos harness and the tests) reads
    replies with it. *)

type reader
(** A buffered line reader on one socket.  Bytes past the first newline
    of a read stay buffered for the next {!read_line}. *)

val make_reader : Unix.file_descr -> reader

val read_line :
  reader -> deadline:float option -> [ `Line of string | `Eof | `Timeout ]
(** The next newline-terminated line, without its newline.  [deadline]
    is absolute ([Unix.gettimeofday] time) for completing the whole line:
    SO_RCVTIMEO is re-armed with the remaining time before every read, so
    a peer that drips bytes cannot stretch it.  [None] waits forever (and
    disarms a timer an earlier deadline left on the socket).  [`Eof] on
    end of stream or a connection error; [`Timeout] when the deadline
    passes first, with the bytes read so far kept for the next call.
    EINTR retries. *)

val unterminated : reader -> string
(** After [`Eof], the bytes of a line the peer began and never ended
    (empty when it hung up between lines); taking them clears them. *)

val set_timeout : Unix.file_descr -> Unix.socket_float_option -> float -> unit
(** Set SO_RCVTIMEO/SO_SNDTIMEO, ignoring a socket that refuses it. *)

val connect : socket:string -> (Unix.file_descr, string) result
(** A stream connection to the Unix socket at [socket]; the error is
    the errno's message, and no descriptor leaks on failure. *)

val cache_key : request -> string
(** The content address of a request's answer: the raw 16-byte MD5 of
    length-prefixed fields — protocol version, command, file count, each
    path and its source bytes — followed by the canonical JSON of every
    output-affecting option (budget limits and the reorder policy
    included, because they change the answer).  The length prefixes make
    the encoding injective; the key lives only in the daemon's memory and
    never crosses the wire.

    Deliberately {e excluded}: [id] (transport bookkeeping), [jobs]
    (output is pool-size-independent by the batch driver's contract —
    a [-j 4] answer may serve a [-j 1] request), and [trace] (event
    frames are auxiliary; a cache hit simply streams none). *)

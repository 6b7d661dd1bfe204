(** A minimal JSON value type with a compact printer and a strict
    parser — just enough for the serve wire protocol, the generator's
    corpus manifests and [--json] output, with zero dependencies beyond
    the stdlib.

    {b Printing.} The printer emits no newlines (control characters in
    strings are escaped), so one encoded value is always one line — the
    framing invariant of the newline-delimited protocol.  In strings it
    escapes exactly the double quote, the backslash and the bytes below
    0x20 ([\n], [\r], [\t] by name, the rest as [\u00XX]); every other
    byte, 0x7f and above included, is copied as is.  Floats print with [%.17g], and a
    non-finite float prints as [null].

    {b Parsing} accepts exactly one RFC 8259 value, surrounded by
    optional whitespace (space, tab, newline, carriage return):
    - numbers match [-?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)?];
      [+5], [01], [1.], [.5] are rejected.  An integer that fits an
      OCaml [int] is an [Int]; any other number is a [Float].
    - strings may not hold a raw byte below 0x20.  The escapes are
      [\\], [\/], [\b], [\f], [\n], [\r], [\t], an escaped double
      quote and [\uXXXX] (four hex digits of either case), decoded to
      UTF-8.  A high surrogate followed by an escaped
      low surrogate ([\ud83d\ude00]) decodes to the one 4-byte sequence
      of its code point (U+1F600 is [F0 9F 98 80]); a surrogate on its
      own is a parse error.  Unescaped bytes pass through unvalidated,
      so [of_string (to_string v) = v] for strings of any bytes.
    - the literals [true], [false], [null]; arrays and objects with no
      trailing comma.  Object keys keep their order; a repeated key is
      kept twice and {!member} finds the first.

    Both directions take time linear in the input: every byte is looked
    at once, and runs of bytes that need no escape are copied whole. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact (single-line) encoding. *)

val to_line : t -> string
(** [to_string v] and a newline, built in one buffer: one frame of the
    newline-delimited wire. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the [to_string] encoding. *)

val of_string : string -> t
(** Strict parse of exactly one value (surrounding whitespace allowed).
    @raise Parse_error on malformed input, with the offending offset. *)

val member : string -> t -> t option
(** [member k (Obj …)] is the value under key [k]; [None] when the key
    is absent or the value is not an object. *)

val to_int : t -> int option
val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option

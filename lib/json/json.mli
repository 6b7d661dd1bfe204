(** A minimal JSON value type with a compact printer, a pretty printer
    and a strict parser — just enough for the serve wire protocol, the
    generator's corpus manifests and every [--json] document, with zero
    dependencies beyond the stdlib.

    {b Printing.} The compact printer emits no newlines (control
    characters in strings are escaped), so one encoded value is always
    one line — the framing invariant of the newline-delimited protocol.
    In strings both printers escape exactly the double quote, the
    backslash and the bytes below 0x20 ([\n], [\r], [\t] by name, the
    rest as [\u00XX]); every other byte, 0x7f and above included, is
    copied as is.  A float prints as the shortest of [%.15g], [%.16g]
    and [%.17g] that reads back to the same double, with [.0] appended
    when that leaves only digits ([1.0], [0.225], [1e+20]), so it reads
    back as a [Float]; a non-finite float prints as [null].

    {b The pretty layout} ({!to_pretty}) is fixed: a list or object
    whose members are all scalars or empty containers, and number at
    most 8, prints on one line ([[a, b]], [{ "k": v, "k2": w }]); any
    other one prints one member per line, two spaces deeper than its
    parent, and the closing bracket at the parent's depth.  Empty
    containers print as [[]] and [{}], and the document ends in a
    newline.

    {b Parsing} accepts exactly one RFC 8259 value, surrounded by
    optional whitespace (space, tab, newline, carriage return):
    - numbers match [-?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)?];
      [+5], [01], [1.], [.5] are rejected.  An integer that fits an
      OCaml [int] is an [Int], any other integer a [Bigint] of its
      exact digits; a number with a fraction or an exponent is a
      [Float].
    - strings may not hold a raw byte below 0x20.  The escapes are
      [\\], [\/], [\b], [\f], [\n], [\r], [\t], an escaped double
      quote and [\uXXXX] (four hex digits of either case), decoded to
      UTF-8.  A high surrogate followed by an escaped
      low surrogate ([\ud83d\ude00]) decodes to the one 4-byte sequence
      of its code point (U+1F600 is [F0 9F 98 80]); a surrogate on its
      own is a parse error.  Unescaped bytes pass through unvalidated,
      so [of_string (to_string v) = v] for strings of any bytes (and
      [of_string (to_pretty v) = v]).
    - the literals [true], [false], [null]; arrays and objects with no
      trailing comma.  Object keys keep their order; a repeated key is
      kept twice and {!member} finds the first.

    Both directions take time linear in the input: every byte is looked
    at once, and runs of bytes that need no escape are copied whole. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Bigint of string
      (** an integer outside the [int] range, as its decimal digits: an
          optional minus and no leading zero (exact state counts) *)
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

val to_pretty : t -> string
(** The pretty layout above: the form of every [--json] document. *)

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

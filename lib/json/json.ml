type t =
  | Null
  | Bool of bool
  | Int of int
  | Bigint of string
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---- printing --------------------------------------------------------------

   Strings are copied in runs: a byte that needs no escape is never
   touched on its own, only the run it belongs to, with one
   [Buffer.add_substring] when the next escaped byte (or the end) is
   reached. *)

let hex_digit d = "0123456789abcdef".[d]
let is_digit = function '0' .. '9' -> true | _ -> false

let escape_into b s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      if i > !start then Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
          let k = Char.code c in
          Buffer.add_string b "\\u00";
          Buffer.add_char b (hex_digit (k lsr 4));
          Buffer.add_char b (hex_digit (k land 0xf)));
      start := i + 1
    end
  done;
  if !start < n then Buffer.add_substring b s !start (n - !start)

let add_quoted b s =
  Buffer.add_char b '"';
  escape_into b s;
  Buffer.add_char b '"'

(* The shortest of [%.15g], [%.16g], [%.17g] that reads back to [f]
   ([%.17g] always does), with [.0] appended when that leaves only
   digits, so the token reads back as a float.  Never "nan"/"inf" (not
   JSON): a non-finite float degrades to null. *)
let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else begin
    let s = Printf.sprintf "%.15g" f in
    let s =
      if float_of_string s = f then s
      else
        let s = Printf.sprintf "%.16g" f in
        if float_of_string s = f then s else Printf.sprintf "%.17g" f
    in
    Buffer.add_string b s;
    if String.for_all (fun c -> c = '-' || is_digit c) s then Buffer.add_string b ".0"
  end

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bigint s -> Buffer.add_string b s
  | Float f -> add_float b f
  | String s -> add_quoted b s
  | List [] -> Buffer.add_string b "[]"
  | List (v :: rest) ->
      Buffer.add_char b '[';
      to_buffer b v;
      List.iter
        (fun v ->
          Buffer.add_char b ',';
          to_buffer b v)
        rest;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj (kv :: rest) ->
      Buffer.add_char b '{';
      add_member b kv;
      List.iter
        (fun kv ->
          Buffer.add_char b ',';
          add_member b kv)
        rest;
      Buffer.add_char b '}'

and add_member b (k, v) =
  add_quoted b k;
  Buffer.add_char b ':';
  to_buffer b v

let to_string v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.contents b

let to_line v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* The pretty layout: a container of at most 8 members, all of them
   scalars or empty containers, on one line; any other one member per
   line, two spaces deeper than its parent. *)
let is_scalar = function List (_ :: _) | Obj (_ :: _) -> false | _ -> true

let rec pretty b indent = function
  | List (_ :: _ as vs) -> container b indent '[' ']' (List.map (fun v -> (None, v)) vs)
  | Obj (_ :: _ as kvs) -> container b indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)
  | v -> to_buffer b v

and container b indent opening closing members =
  let flat =
    List.compare_length_with members 8 <= 0 && List.for_all (fun (_, v) -> is_scalar v) members
  in
  let pad = if flat && opening = '{' then " " else "" in
  Buffer.add_char b opening;
  Buffer.add_string b pad;
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b (if flat then ", " else ",");
      if not flat then Buffer.add_string b ("\n" ^ String.make (indent + 2) ' ');
      Option.iter (fun k -> add_quoted b k; Buffer.add_string b ": ") k;
      pretty b (indent + 2) v)
    members;
  Buffer.add_string b (if flat then pad else "\n" ^ String.make indent ' ');
  Buffer.add_char b closing

let to_pretty v =
  let b = Buffer.create 4096 in
  pretty b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---- parsing ---------------------------------------------------------------

   One cursor over the input; every branch looks at the byte under it
   directly (no option per character).  A string with no escape is one
   [String.sub] of the run between its quotes; only an escape sends it
   through a buffer, and even then unescaped runs are copied whole. *)

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* Encode a Unicode scalar value as UTF-8 (for \uXXXX escapes). *)
let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The characters a number token is scanned over before it is checked
   against the grammar, so a malformed number is reported whole. *)
let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let rec digits_end s j k = if k < j && is_digit s.[k] then digits_end s j (k + 1) else k

(* the end of a non-empty digit run at [k], or -1 *)
let digits s j k =
  let e = digits_end s j k in
  if e = k then -1 else e

(* Whether [s.[i..j)] is an RFC 8259 number: an optional minus, [0] or
   a digit run without a leading zero, then an optional fraction and an
   optional exponent, each with at least one digit.  [Some integral]
   (no fraction, no exponent) on a match. *)
let number_shape s i j =
  let k = if i < j && s.[i] = '-' then i + 1 else i in
  let k = if k < j && s.[k] = '0' then k + 1 else digits s j k in
  let frac = k >= 0 && k < j && s.[k] = '.' in
  let k = if frac then digits s j (k + 1) else k in
  let exp = k >= 0 && k < j && (s.[k] = 'e' || s.[k] = 'E') in
  let k =
    if exp then
      let k = k + 1 in
      digits s j (if k < j && (s.[k] = '+' || s.[k] = '-') then k + 1 else k)
    else k
  in
  if k = j then Some (not (frac || exp)) else None

(* The cursor: top-level functions over this record, so a parse
   allocates no closure, only the values it returns. *)
type cursor = { s : string; n : int; mutable pos : int }

let skip_ws c =
  while
    c.pos < c.n
    && match String.unsafe_get c.s c.pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  if c.pos >= c.n then fail "expected '%c' at offset %d, got end of input" ch c.pos
  else if c.s.[c.pos] = ch then c.pos <- c.pos + 1
  else fail "expected '%c' at offset %d, got '%c'" ch c.pos c.s.[c.pos]

let rec matches c word k =
  k = String.length word || (c.s.[c.pos + k] = word.[k] && matches c word (k + 1))

let literal c word v =
  if c.pos + String.length word <= c.n && matches c word 0 then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else fail "invalid literal at offset %d" c.pos

(* four hex digits at [i], or -1 *)
let hex4 s i =
  let a = hex_value s.[i]
  and b = hex_value s.[i + 1]
  and c = hex_value s.[i + 2]
  and d = hex_value s.[i + 3] in
  if a < 0 || b < 0 || c < 0 || d < 0 then -1
  else (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

(* [\uXXXX] at [c.pos], its low surrogate included when it starts a pair *)
let unicode_escape c b =
  let at = c.pos in
  if at + 5 >= c.n then fail "truncated \\u escape";
  let cp = hex4 c.s (at + 2) in
  if cp < 0 then fail "invalid \\u escape at offset %d" at;
  c.pos <- at + 6;
  if cp >= 0xd800 && cp <= 0xdbff then begin
    let lo =
      if c.pos + 5 < c.n && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u' then hex4 c.s (c.pos + 2)
      else -1
    in
    if lo < 0xdc00 || lo > 0xdfff then fail "lone surrogate \\u%04x at offset %d" cp at;
    c.pos <- c.pos + 6;
    add_utf8 b (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
  end
  else if cp >= 0xdc00 && cp <= 0xdfff then fail "lone surrogate \\u%04x at offset %d" cp at
  else add_utf8 b cp

(* the end of the run of plain bytes from [i]: the next quote or backslash *)
let rec scan_run c i =
  if i >= c.n then fail "unterminated string"
  else
    match String.unsafe_get c.s i with
    | '"' | '\\' -> i
    | ch when ch < ' ' -> fail "unescaped control character 0x%02x at offset %d" (Char.code ch) i
    | _ -> scan_run c (i + 1)

(* [c.pos] is at a backslash; decode escapes and the runs between them
   up to the closing quote *)
let rec unescape c b =
  if c.pos + 1 >= c.n then fail "truncated escape";
  (match c.s.[c.pos + 1] with
  | 'u' -> unicode_escape c b
  | ch ->
      Buffer.add_char b
        (match ch with
        | '"' -> '"'
        | '\\' -> '\\'
        | '/' -> '/'
        | 'b' -> '\b'
        | 'f' -> '\012'
        | 'n' -> '\n'
        | 'r' -> '\r'
        | 't' -> '\t'
        | ch -> fail "invalid escape '\\%c'" ch);
      c.pos <- c.pos + 2);
  let stop = scan_run c c.pos in
  Buffer.add_substring b c.s c.pos (stop - c.pos);
  if c.s.[stop] = '"' then c.pos <- stop + 1
  else begin
    c.pos <- stop;
    unescape c b
  end

let parse_string c =
  expect c '"';
  let start = c.pos in
  let stop = scan_run c start in
  if c.s.[stop] = '"' then begin
    c.pos <- stop + 1;
    String.sub c.s start (stop - start)
  end
  else begin
    let b = Buffer.create (stop - start + 16) in
    Buffer.add_substring b c.s start (stop - start);
    c.pos <- stop;
    unescape c b;
    Buffer.contents b
  end

(* the longest decimal token that cannot overflow an [int] *)
let max_fast_digits = if Sys.int_size >= 63 then 18 else 9

let parse_number c =
  let s = c.s and start = c.pos in
  while c.pos < c.n && is_num_char (String.unsafe_get s c.pos) do
    c.pos <- c.pos + 1
  done;
  let stop = c.pos in
  match number_shape s start stop with
  | Some true when stop - start <= max_fast_digits ->
      let neg = s.[start] = '-' in
      let acc = ref 0 in
      for i = (if neg then start + 1 else start) to stop - 1 do
        acc := (!acc * 10) + (Char.code (String.unsafe_get s i) - 48)
      done;
      Int (if neg then - !acc else !acc)
  | shape -> (
      let tok = String.sub s start (stop - start) in
      match shape with
      | None -> fail "invalid number %S at offset %d" tok start
      | Some integral -> (
          if not integral then Float (float_of_string tok)
          else match int_of_string_opt tok with Some i -> Int i | None -> Bigint tok))

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.n then fail "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '"' -> String (parse_string c)
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if c.pos < c.n && c.s.[c.pos] = '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (members c [])
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if c.pos < c.n && c.s.[c.pos] = ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (elements c [])
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | ch when is_num_char ch -> parse_number c
  | ch -> fail "unexpected '%s' at offset %d" (Char.escaped ch) c.pos

and members c acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  let acc = (k, v) :: acc in
  if c.pos < c.n && c.s.[c.pos] = ',' then begin
    c.pos <- c.pos + 1;
    members c acc
  end
  else if c.pos < c.n && c.s.[c.pos] = '}' then begin
    c.pos <- c.pos + 1;
    List.rev acc
  end
  else fail "expected ',' or '}' at offset %d" c.pos

and elements c acc =
  let v = parse_value c in
  skip_ws c;
  if c.pos < c.n && c.s.[c.pos] = ',' then begin
    c.pos <- c.pos + 1;
    elements c (v :: acc)
  end
  else if c.pos < c.n && c.s.[c.pos] = ']' then begin
    c.pos <- c.pos + 1;
    List.rev (v :: acc)
  end
  else fail "expected ',' or ']' at offset %d" c.pos

let of_string s =
  let c = { s; n = String.length s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> c.n then fail "trailing input at offset %d" c.pos;
  v

(* ---- accessors ------------------------------------------------------------- *)

let rec assoc k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc k rest

let member k = function Obj kvs -> assoc k kvs | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None

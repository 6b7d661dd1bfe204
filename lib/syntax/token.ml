type token =
  | IDENT of string
  | NUM of int
  | KPROGRAM
  | KVAR
  | KPROCESSES
  | KINIT
  | KASSIGN
  | KIF
  | KBOOL
  | KNAT
  | KENUM
  | KTRUE
  | KFALSE
  | KKNOW
  | KEVERY
  | KCOMMON
  | KDISTR
  | LPAR
  | RPAR
  | LBRACE
  | RBRACE
  | LBRACK
  | RBRACK
  | COMMA
  | COLON
  | EQDEF
  | BECOMES
  | BAR
  | NOT
  | AND
  | OR
  | IMP
  | IFF
  | NE
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | EOF

type located = { tok : token; line : int; col : int }

let span_of (lt : located) = Loc.make ~line:lt.line ~col:lt.col

exception Lex_error of Loc.span * string

let lex_error line col fmt =
  Format.kasprintf (fun s -> raise (Lex_error (Loc.make ~line ~col, s))) fmt

let keyword = function
  | "program" -> Some KPROGRAM
  | "var" -> Some KVAR
  | "processes" -> Some KPROCESSES
  | "init" -> Some KINIT
  | "assign" -> Some KASSIGN
  | "if" -> Some KIF
  | "bool" -> Some KBOOL
  | "nat" -> Some KNAT
  | "enum" -> Some KENUM
  | "true" -> Some KTRUE
  | "false" -> Some KFALSE
  | "K" -> Some KKNOW
  | "E" -> Some KEVERY
  | "C" -> Some KCOMMON
  | "D" -> Some KDISTR
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let emit tok = out := { tok; line = !line; col = !col } :: !out in
  let advance k =
    for j = !i to min (n - 1) (!i + k - 1) do
      if src.[j] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col
    done;
    i := !i + k
  in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance 1
    else if c = '-' && peek 1 = Some '-' then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do
        advance 1
      done
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do
        incr j
      done;
      let digits = String.sub src !i (!j - !i) in
      (match int_of_string_opt digits with
      | Some v -> emit (NUM v)
      | None -> lex_error !line !col "integer literal %s is too large" digits);
      advance (!j - !i)
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      let word = String.sub src !i (!j - !i) in
      emit (match keyword word with Some k -> k | None -> IDENT word);
      advance (!j - !i)
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      let three = if !i + 2 < n then String.sub src !i 3 else "" in
      if three = "<=>" then (emit IFF; advance 3)
      else
        match two with
        | ":=" -> emit BECOMES; advance 2
        | "/\\" -> emit AND; advance 2
        | "\\/" -> emit OR; advance 2
        | "=>" -> emit IMP; advance 2
        | "!=" -> emit NE; advance 2
        | "<=" -> emit LE; advance 2
        | ">=" -> emit GE; advance 2
        | "[]" -> emit BAR; advance 2
        | _ -> (
            match c with
            | '(' -> emit LPAR; advance 1
            | ')' -> emit RPAR; advance 1
            | '{' -> emit LBRACE; advance 1
            | '}' -> emit RBRACE; advance 1
            | '[' -> emit LBRACK; advance 1
            | ']' -> emit RBRACK; advance 1
            | ',' -> emit COMMA; advance 1
            | ':' -> emit COLON; advance 1
            | '=' -> emit EQDEF; advance 1
            | '|' -> emit BAR; advance 1
            | '~' -> emit NOT; advance 1
            | '<' -> emit LT; advance 1
            | '>' -> emit GT; advance 1
            | '+' -> emit PLUS; advance 1
            | '-' -> emit MINUS; advance 1
            | _ -> lex_error !line !col "unexpected character %C" c)
    end
  done;
  out := { tok = EOF; line = !line; col = !col } :: !out;
  List.rev !out

let describe = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | NUM n -> Printf.sprintf "number %d" n
  | KPROGRAM -> "'program'"
  | KVAR -> "'var'"
  | KPROCESSES -> "'processes'"
  | KINIT -> "'init'"
  | KASSIGN -> "'assign'"
  | KIF -> "'if'"
  | KBOOL -> "'bool'"
  | KNAT -> "'nat'"
  | KENUM -> "'enum'"
  | KTRUE -> "'true'"
  | KFALSE -> "'false'"
  | KKNOW -> "'K'"
  | KEVERY -> "'E'"
  | KCOMMON -> "'C'"
  | KDISTR -> "'D'"
  | LPAR -> "'('"
  | RPAR -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACK -> "'['"
  | RBRACK -> "']'"
  | COMMA -> "','"
  | COLON -> "':'"
  | EQDEF -> "'='"
  | BECOMES -> "':='"
  | BAR -> "'|'"
  | NOT -> "'~'"
  | AND -> "'/\\'"
  | OR -> "'\\/'"
  | IMP -> "'=>'"
  | IFF -> "'<=>'"
  | NE -> "'!='"
  | LT -> "'<'"
  | LE -> "'<='"
  | GT -> "'>'"
  | GE -> "'>='"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | EOF -> "end of input"

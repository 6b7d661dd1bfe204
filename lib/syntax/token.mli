(** Lexer for the concrete UNITY / knowledge-based-protocol syntax.

    The surface language follows the paper's notation as closely as ASCII
    allows:

    {v
    program figure1
    var shared, x : bool
    processes
      P0 = { shared }
      P1 = { shared, x }
    init ~shared /\ ~x
    assign
      s0: shared := true          if K[P0](~x)
    | s1: x, shared := true, false if shared
    v}

    Comments run from [--] to the end of the line. *)

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
  | KKNOW       (** [K]  *)
  | KEVERY      (** [E]  *)
  | KCOMMON     (** [C]  *)
  | KDISTR      (** [D]  *)
  | LPAR
  | RPAR
  | LBRACE
  | RBRACE
  | LBRACK
  | RBRACK
  | COMMA
  | COLON
  | EQDEF       (** [=] in process declarations *)
  | BECOMES     (** [:=] *)
  | BAR         (** statement separator [|] or [[]] *)
  | NOT         (** [~] *)
  | AND         (** [/\] *)
  | OR          (** [\/] *)
  | IMP         (** [=>] *)
  | IFF         (** [<=>] *)
  | NE          (** [!=] *)
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | EOF

type located = { tok : token; line : int; col : int }

val span_of : located -> Loc.span

exception Lex_error of Loc.span * string
(** Position of the offending character and a message (without the
    position — callers prepend [file:line:col] as appropriate). *)

val tokenize : string -> located list
(** Lex a whole source file.  @raise Lex_error on unknown characters and
    on integer literals too large for an OCaml [int]. *)

val describe : token -> string
(** For error messages. *)

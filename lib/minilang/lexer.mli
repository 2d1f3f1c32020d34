(** Hand-written streaming lexer for the mini-language: [//] and [/* */]
    comments, [#] allowed only before [pragma], C-like operators, integer
    literals up to [max_int] and string literals. *)

type token =
  | INT of int
  | IDENT of string
  | STRING of string
  | FUNC
  | VAR
  | IF
  | ELSE
  | WHILE
  | FOR
  | TO
  | RETURN
  | PRAGMA
  | OMP
  | PARALLEL
  | SINGLE
  | MASTER
  | CRITICAL
  | BARRIER
  | SECTIONS
  | SECTION
  | NUM_THREADS
  | NOWAIT
  | REDUCTION
  | COLON
  | TRUE
  | FALSE
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | EQEQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | ANDAND
  | OROR
  | BANG
  | EOF

val token_to_string : token -> string

exception Lex_error of Loc.t * string

(** A scanner over one source string. *)
type t

val make : file:string -> string -> t

(** The next token; [EOF] at the end of the source, as often as it is
    called.  @raise Lex_error on malformed input. *)
val next : t -> token

(** Where the token last returned by {!next} starts. *)
val loc : t -> Loc.t

(** Tokenise a whole source string; the result ends with [EOF].
    @raise Lex_error on malformed input. *)
val tokenize : file:string -> string -> (token * Loc.t) list

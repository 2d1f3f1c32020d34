(** Hand-written streaming lexer for the mini-language surface syntax.

    Supports [//] line comments, [/* ... */] block comments, and an optional
    [#] before [pragma] so that sources can look like real OpenMP code.  The
    parser pulls one token at a time with {!next}. *)

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

let token_to_string = function
  | INT n -> string_of_int n
  | IDENT s -> s
  | STRING s -> Printf.sprintf "%S" s
  | FUNC -> "func"
  | VAR -> "var"
  | IF -> "if"
  | ELSE -> "else"
  | WHILE -> "while"
  | FOR -> "for"
  | TO -> "to"
  | RETURN -> "return"
  | PRAGMA -> "pragma"
  | OMP -> "omp"
  | PARALLEL -> "parallel"
  | SINGLE -> "single"
  | MASTER -> "master"
  | CRITICAL -> "critical"
  | BARRIER -> "barrier"
  | SECTIONS -> "sections"
  | SECTION -> "section"
  | NUM_THREADS -> "num_threads"
  | NOWAIT -> "nowait"
  | REDUCTION -> "reduction"
  | COLON -> ":"
  | TRUE -> "true"
  | FALSE -> "false"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | COMMA -> ","
  | SEMI -> ";"
  | ASSIGN -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | EQEQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | ANDAND -> "&&"
  | OROR -> "||"
  | BANG -> "!"
  | EOF -> "<eof>"

exception Lex_error of Loc.t * string

let keyword = function
  | "func" -> FUNC
  | "var" -> VAR
  | "if" -> IF
  | "else" -> ELSE
  | "while" -> WHILE
  | "for" -> FOR
  | "to" -> TO
  | "return" -> RETURN
  | "pragma" -> PRAGMA
  | "omp" -> OMP
  | "parallel" -> PARALLEL
  | "single" -> SINGLE
  | "master" -> MASTER
  | "critical" -> CRITICAL
  | "barrier" -> BARRIER
  | "sections" -> SECTIONS
  | "section" -> SECTION
  | "num_threads" -> NUM_THREADS
  | "nowait" -> NOWAIT
  | "reduction" -> REDUCTION
  | "true" -> TRUE
  | "false" -> FALSE
  | word -> IDENT word

(* The scanner works on byte offsets.  [bol] is the offset where the
   current line begins, so a column is [pos - bol + 1]: every byte,
   tabs and ['\r'] included, counts one column.  [tok_line]/[tok_col]
   locate the token [next] returned last. *)
type t = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable tok_line : int;
  mutable tok_col : int;
}

let make ~file src =
  { src; file; pos = 0; line = 1; bol = 0; tok_line = 1; tok_col = 1 }

let loc lx = Loc.make ~file:lx.file ~line:lx.tok_line ~col:lx.tok_col

let error lx msg = raise (Lex_error (loc lx, msg))

let char_at lx i =
  if i < String.length lx.src then String.unsafe_get lx.src i else '\000'

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let rec ident_end lx i = if is_ident_char (char_at lx i) then ident_end lx (i + 1) else i

(* Counts the newlines in [src.[lo..hi-1]], which the scanner has consumed. *)
let newlines lx lo hi =
  for i = lo to hi - 1 do
    if lx.src.[i] = '\n' then (
      lx.line <- lx.line + 1;
      lx.bol <- i + 1)
  done

let rec skip lx =
  match char_at lx lx.pos with
  | ' ' | '\t' | '\r' ->
      lx.pos <- lx.pos + 1;
      skip lx
  | '\n' ->
      lx.pos <- lx.pos + 1;
      lx.line <- lx.line + 1;
      lx.bol <- lx.pos;
      skip lx
  | '/' when char_at lx (lx.pos + 1) = '/' ->
      lx.pos <-
        (match String.index_from_opt lx.src lx.pos '\n' with
        | Some i -> i
        | None -> String.length lx.src);
      skip lx
  | '/' when char_at lx (lx.pos + 1) = '*' ->
      let rec close i =
        if i + 1 >= String.length lx.src then (
          lx.tok_line <- lx.line;
          lx.tok_col <- lx.pos - lx.bol + 1;
          error lx "unterminated block comment")
        else if lx.src.[i] = '*' && lx.src.[i + 1] = '/' then i + 2
        else close (i + 1)
      in
      let stop = close (lx.pos + 2) in
      newlines lx lx.pos stop;
      lx.pos <- stop;
      skip lx
  | _ -> ()

(* Accumulates the digits of an integer literal, rejecting any literal
   above [max_int]. *)
let rec number lx n =
  match char_at lx lx.pos with
  | '0' .. '9' as c ->
      let d = Char.code c - Char.code '0' in
      if n > (max_int - d) / 10 then error lx "integer literal out of range";
      lx.pos <- lx.pos + 1;
      number lx ((n * 10) + d)
  | _ -> INT n

(** Scans the next token; {!loc} then gives its starting location.  At
    the end of the source it returns [EOF], as often as it is called. *)
let rec next lx =
  skip lx;
  let pos = lx.pos in
  lx.tok_line <- lx.line;
  lx.tok_col <- pos - lx.bol + 1;
  if pos >= String.length lx.src then EOF
  else
    match lx.src.[pos] with
    | '0' .. '9' -> number lx 0
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        lx.pos <- ident_end lx pos;
        keyword (String.sub lx.src pos (lx.pos - pos))
    | '"' -> (
        match String.index_from_opt lx.src (pos + 1) '"' with
        | None -> error lx "unterminated string literal"
        | Some stop ->
            newlines lx pos stop;
            lx.pos <- stop + 1;
            STRING (String.sub lx.src (pos + 1) (stop - pos - 1)))
    | '#' ->
        (* Only '#pragma' is allowed, with optional blanks after '#'. *)
        let rec blanks i =
          match char_at lx i with ' ' | '\t' -> blanks (i + 1) | _ -> i
        in
        let p = blanks (pos + 1) in
        if ident_end lx p - p = 6 && String.equal (String.sub lx.src p 6) "pragma"
        then (
          lx.pos <- p;
          next lx)
        else error lx "stray '#' (only '#pragma' is allowed)"
    | c ->
        let tok =
          match (c, char_at lx (pos + 1)) with
          | '=', '=' -> EQEQ
          | '=', _ -> ASSIGN
          | '!', '=' -> NE
          | '!', _ -> BANG
          | '<', '=' -> LE
          | '<', _ -> LT
          | '>', '=' -> GE
          | '>', _ -> GT
          | '&', '&' -> ANDAND
          | '|', '|' -> OROR
          | '(', _ -> LPAREN
          | ')', _ -> RPAREN
          | '{', _ -> LBRACE
          | '}', _ -> RBRACE
          | ',', _ -> COMMA
          | ':', _ -> COLON
          | ';', _ -> SEMI
          | '+', _ -> PLUS
          | '-', _ -> MINUS
          | '*', _ -> STAR
          | '/', _ -> SLASH
          | '%', _ -> PERCENT
          | _ -> error lx (Printf.sprintf "unexpected character %C" c)
        in
        lx.pos <-
          (pos + match tok with EQEQ | NE | LE | GE | ANDAND | OROR -> 2 | _ -> 1);
        tok

(** Tokenise a whole source string. *)
let tokenize ~file src =
  let lx = make ~file src in
  let rec loop acc =
    let tok = next lx in
    let acc = (tok, loc lx) :: acc in
    if tok == EOF then List.rev acc else loop acc
  in
  loop []

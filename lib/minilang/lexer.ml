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

(* The end of the identifier that continues at [i]. *)
let ident_end src i =
  let n = String.length src in
  let i = ref i in
  while
    !i < n
    &&
    match String.unsafe_get src !i with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
    | _ -> false
  do
    incr i
  done;
  !i

(* Does [src] spell [kw] from [pos] on?  [src] holds at least
   [String.length kw] bytes from [pos]. *)
let spells src pos kw =
  let len = String.length kw in
  let i = ref 0 in
  while
    !i < len && String.unsafe_get src (pos + !i) = String.unsafe_get kw !i
  do
    incr i
  done;
  !i = len

(* The token of the word [src.[pos..pos+len-1]]: the keyword its length
   and first byte allow, if the word spells it, else an identifier.
   Only an identifier allocates. *)
let word src pos len =
  let keyword =
    match (len, String.unsafe_get src pos) with
    | 2, 'i' -> IF
    | 2, 't' -> TO
    | 3, 'v' -> VAR
    | 3, 'f' -> FOR
    | 3, 'o' -> OMP
    | 4, 'f' -> FUNC
    | 4, 'e' -> ELSE
    | 4, 't' -> TRUE
    | 5, 'w' -> WHILE
    | 5, 'f' -> FALSE
    | 6, 'r' -> RETURN
    | 6, 'p' -> PRAGMA
    | 6, 's' -> SINGLE
    | 6, 'm' -> MASTER
    | 6, 'n' -> NOWAIT
    | 7, 'b' -> BARRIER
    | 7, 's' -> SECTION
    | 8, 'p' -> PARALLEL
    | 8, 'c' -> CRITICAL
    | 8, 's' -> SECTIONS
    | 9, 'r' -> REDUCTION
    | 11, 'n' -> NUM_THREADS
    | _ -> EOF
  in
  if keyword != EOF && spells src pos (token_to_string keyword) then keyword
  else IDENT (String.sub src pos len)

(* Counts the newlines in [src.[lo..hi-1]], which the scanner has consumed. *)
let newlines lx lo hi =
  for i = lo to hi - 1 do
    if String.unsafe_get lx.src i = '\n' then (
      lx.line <- lx.line + 1;
      lx.bol <- i + 1)
  done

(* Skips blanks, newlines and comments. *)
let skip lx =
  let src = lx.src in
  let n = String.length src in
  let pos = ref lx.pos in
  let scanning = ref true in
  while !scanning && !pos < n do
    match String.unsafe_get src !pos with
    | ' ' | '\t' | '\r' -> incr pos
    | '\n' ->
        incr pos;
        lx.line <- lx.line + 1;
        lx.bol <- !pos
    | '/' when !pos + 1 < n && String.unsafe_get src (!pos + 1) = '/' -> (
        match String.index_from_opt src !pos '\n' with
        | Some i -> pos := i
        | None -> pos := n)
    | '/' when !pos + 1 < n && String.unsafe_get src (!pos + 1) = '*' ->
        let i = ref (!pos + 2) in
        while
          !i + 1 < n
          && not
               (String.unsafe_get src !i = '*'
               && String.unsafe_get src (!i + 1) = '/')
        do
          incr i
        done;
        if !i + 1 >= n then (
          lx.tok_line <- lx.line;
          lx.tok_col <- !pos - lx.bol + 1;
          error lx "unterminated block comment");
        newlines lx !pos (!i + 2);
        pos := !i + 2
    | _ -> scanning := false
  done;
  lx.pos <- !pos

(* Accumulates the digits of an integer literal, rejecting any literal
   above [max_int]. *)
let number lx =
  let src = lx.src in
  let n = String.length src in
  let v = ref 0 in
  while
    lx.pos < n
    && match String.unsafe_get src lx.pos with '0' .. '9' -> true | _ -> false
  do
    let d = Char.code (String.unsafe_get src lx.pos) - Char.code '0' in
    if !v > (max_int - d) / 10 then error lx "integer literal out of range";
    lx.pos <- lx.pos + 1;
    v := (!v * 10) + d
  done;
  INT !v

(** Scans the next token; {!loc} then gives its starting location.  At
    the end of the source it returns [EOF], as often as it is called. *)
let rec next lx =
  skip lx;
  let pos = lx.pos in
  lx.tok_line <- lx.line;
  lx.tok_col <- pos - lx.bol + 1;
  if pos >= String.length lx.src then EOF
  else
    match String.unsafe_get lx.src pos with
    | '0' .. '9' -> number lx
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        lx.pos <- ident_end lx.src (pos + 1);
        word lx.src pos (lx.pos - pos)
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
        if ident_end lx.src p - p = 6 && spells lx.src p "pragma" then (
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

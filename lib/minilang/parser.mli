(** Recursive-descent parser for the mini-language surface syntax (see the
    implementation header for the grammar). *)

exception Parse_error of Loc.t * string

(** Parse a whole program from a string.
    @raise Parse_error or {!Lexer.Lex_error} on malformed input. *)
val parse_string : ?file:string -> string -> Ast.program

(** Parse a program from a file on disk. *)
val parse_file : string -> Ast.program

(** The text of a file on disk, or [Error reason] when it cannot be read
    (missing, a directory, no permission); [reason] does not repeat the
    path. *)
val read_file : string -> (string, string) result

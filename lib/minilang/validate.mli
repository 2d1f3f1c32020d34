(** Semantic validation: scoping, call arity, and the OpenMP nesting
    discipline the PARCOACH analyses assume (perfectly nested fork/join
    regions; no [return] out of constructs; no barrier inside
    single-threaded or worksharing regions; warnings for barriers under
    non-uniform control flow). *)

type severity = Error | Warning

type issue = { severity : severity; loc : Loc.t; message : string }

val issue_to_string : issue -> string

val errors : issue list -> issue list

val is_valid : issue list -> bool

(** [catch_syntax_error parse] runs a parser call.  A {!Parser.Parse_error}
    or {!Lexer.Lex_error} it raises becomes the located error issue every
    tool reports: ["parse error: ..."] or ["lex error: ..."]. *)
val catch_syntax_error : (unit -> 'a) -> ('a, issue) result

(** [arity_of p name]: the parameter count of [name]'s first definition
    in [p], the one call sites resolve to. *)
val arity_of : Ast.program -> string -> int option

(** [check_func ~arity f]: the issues of one function, in source order,
    with call sites resolved through [arity] (the parameter count of a
    callee, [None] when undefined).  They depend only on [f] and on the
    arities of its direct callees. *)
val check_func : arity:(string -> int option) -> Ast.func -> issue list

(** One "duplicate function" error per definition of a name that is
    defined again later, in program order. *)
val duplicate_functions : Ast.program -> issue list

(** All issues of a program: {!check_func} on each function in order,
    then {!duplicate_functions}. *)
val check_program : Ast.program -> issue list

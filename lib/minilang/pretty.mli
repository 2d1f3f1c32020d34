(** Pretty-printer for the mini-language.  The output is valid surface
    syntax: parsing the printed form yields a structurally equal program
    (round-trip property); instrumentation checks print as parseable
    [__cc_next(...)] forms, so instrumented programs can be emitted and
    re-run. *)

val pp_expr : Ast.expr Fmt.t

val expr_to_string : Ast.expr -> string

val pp_collective : (string option * Ast.collective) Fmt.t

val pp_check : Ast.check Fmt.t

(** [pp_stmt indent] prints one statement at the given indentation
    level. *)
val pp_stmt : int -> Ast.stmt Fmt.t

val pp_block : int -> Ast.block Fmt.t

val pp_func : Ast.func Fmt.t

val pp_program : Ast.program Fmt.t

val program_to_string : Ast.program -> string

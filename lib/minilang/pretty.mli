(** Pretty-printer for the mini-language.  The output is valid surface
    syntax: parsing the printed form yields a structurally equal program
    (round-trip property); instrumentation checks print as parseable
    [__cc_next(...)] forms, so instrumented programs can be emitted and
    re-run. *)

val expr_to_string : Ast.expr -> string

val pp_check : Ast.check Fmt.t

val program_to_string : Ast.program -> string

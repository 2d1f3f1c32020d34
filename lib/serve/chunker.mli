(** Source chunking for the incremental parse cache.

    The mini-language's top level is a plain sequence of [func]
    declarations, so a source text can be cut into per-function chunks
    with one index scan (tracking brace depth and comments) — no
    parsing.  The daemon keys its parse cache by each chunk's exact text
    and re-parses only chunks it has not seen: an edit to one function
    costs one function's parse, not the file's.

    Chunks are parsed in isolation ([Parser.parse_string] on the chunk
    text) and carry chunk-relative locations; {!shift_func} rebases a
    parsed function onto its absolute position in the requested file.
    The scan is conservative: any input it cannot prove to be a clean
    sequence of top-level functions (stray tokens before the first
    [func], unbalanced braces, an unterminated comment) reports
    [clean = false] and the caller falls back to a whole-file parse, so
    errors and results are exactly the one-shot pipeline's. *)

type chunk = {
  text : string;  (** From the [func] keyword to the next one (or EOF). *)
  line : int;  (** 1-based line of the chunk's first character. *)
  col : int;  (** 1-based column of the chunk's first character. *)
}

type split = {
  clean : bool;
      (** Whether the scan proved the source a plain top-level function
          sequence; when [false], [chunks] must not be used. *)
  chunks : chunk list;
}

val split : string -> split

(** [shift_func ~file ~line ~col f] rebases the chunk-relative locations
    of [f] (parsed at line 1, column 1) onto the absolute position
    [(line, col)] of [file]; columns shift only on the chunk's first
    line. *)
val shift_func :
  file:string -> line:int -> col:int -> Minilang.Ast.func -> Minilang.Ast.func

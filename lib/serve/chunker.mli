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

(** {2 Incremental re-split}

    A daemon sees one file many times, each version an edit of the last.
    {!resplit} compares a source with the previous version's clean split
    and scans again only the bytes between the chunks it can carry over:
    those before the common prefix and those after the common suffix. *)

(** A chunk of a clean split, at byte offset [off], with a caller's
    payload. *)
type 'a span = { off : int; line : int; col : int; data : 'a }

(** A source and its clean split, in source order. *)
type 'a layout = { source : string; spans : 'a span array }

(** [resplit ?prev ~fresh ~moved source] is the clean split of [source]
    ([None] when {!split} reports it unclean): the same chunks, lines
    and columns as [split source].

    With [prev], the split of an earlier source, the two texts are
    compared first ([String.equal], then the common prefix and suffix).
    A chunk of [prev] is carried over, with its payload, when its end
    boundary plus 5 bytes lies inside the common prefix (it is
    unchanged), or when it starts on a line whose preceding newline lies
    inside the common suffix (it keeps its column; its line moves by the
    change in newline count, and [moved] makes the payload of the span
    at its new line when that count is not 0).  Only the bytes between
    the carried front and back chunks are scanned again; [fresh] makes
    the payload of each chunk found there, in source order.  When that
    middle does not resync cleanly with the carried back chunks (an
    unterminated comment or an unbalanced brace in it), the whole source
    is split again.  An unchanged source returns [prev] itself. *)
val resplit :
  ?prev:'a layout ->
  fresh:(chunk -> 'a) ->
  moved:('a span -> 'a) ->
  string ->
  'a layout option

(** [shift_loc ~file ~line ~col l] rebases a chunk-relative location
    (the chunk parsed at line 1, column 1) onto the chunk's absolute
    position [(line, col)] in [file]; columns shift only on the chunk's
    first line, and an unknown location stays unknown. *)
val shift_loc :
  file:string -> line:int -> col:int -> Minilang.Loc.t -> Minilang.Loc.t

(** [shift_func ~file ~line ~col f] rebases every location of [f] with
    {!shift_loc}. *)
val shift_func :
  file:string -> line:int -> col:int -> Minilang.Ast.func -> Minilang.Ast.func

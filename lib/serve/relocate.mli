(** Relocation of cached summaries onto the current source layout.

    Cache keys are location-insensitive, so a hit can come from a source
    where the (structurally identical) function sat at different lines —
    a comment was edited above it, functions were reordered, the file was
    renamed.  The warnings inside the cached report carry the {e old}
    locations; this pass rewrites them to the fresh function's locations
    so the merged warm report is byte-identical to a cold run.

    The mapping zips the statements of the cached and fresh functions in
    source order (they correspond 1:1 because {!func_report} first checks
    {!Minilang.Ast.equal_func}) and substitutes location values; warnings
    are then re-sorted with the driver's comparator, which cold runs use
    on the same set. *)

(** [func_report ~cached ~fresh fr] is [fr] with every warning location
    rewritten from [cached]'s layout to [fresh]'s, or [None] when the two
    functions are not structurally equal (the summary does not apply).
    [fr] itself when there is nothing to rewrite: no warnings, or layouts
    that already coincide. *)
val func_report :
  cached:Minilang.Ast.func ->
  fresh:Minilang.Ast.func ->
  Parcoach.Driver.func_report ->
  Parcoach.Driver.func_report option

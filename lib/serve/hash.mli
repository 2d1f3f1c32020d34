(** Content hashing for the per-function summary cache.

    A function's cache key must change exactly when its analysis result
    could: it covers the function's own name, parameters and body
    {e structure} (source locations excluded, so shifting a function
    around a file, reformatting it, or editing comments does not
    invalidate it), the analysis options, and the name+body digests of
    every function transitively reachable through its call sites — so a
    callee-body edit invalidates all (transitive) callers, which is what
    the interprocedural may-collect summaries and CC call-colours
    require.  Functions the key does {e not} cover (unrelated functions,
    function order in the file) can change freely without invalidation. *)

(** Location-insensitive structural digest of one function (name, params,
    body). *)
val func_digest : Minilang.Ast.func -> string

(** Digest of the analysis options (every field participates). *)
val options_digest : Parcoach.Driver.options -> string

(** [keys ~options program] returns each function of [program], in source
    order, paired with its summary-cache key.  [?digest] and [?summary]
    are memos: when one returns [Some x] for a function, [x] stands in
    for [func_digest f] or {!Parcoach.Callgraph.summary}[ f] (whose
    [calls] give the key's call edges).  The daemon's parse cache
    carries both for every unchanged function, so warm requests neither
    re-serialise nor re-walk bodies. *)
val keys :
  ?digest:(Minilang.Ast.func -> string option) ->
  ?summary:(Minilang.Ast.func -> Parcoach.Callgraph.summary option) ->
  options:Parcoach.Driver.options ->
  Minilang.Ast.program ->
  (Minilang.Ast.func * string) list

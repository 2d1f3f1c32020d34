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
    order, paired with its summary-cache key.  [?digest] is a memo: when
    it returns [Some d] for a function, [d] stands in for [func_digest f].
    It is the definition of the key bytes: {!Cache.analyze} gives the
    same bytes through {!key}, which it calls only for the functions
    whose key can have moved. *)
val keys :
  ?digest:(Minilang.Ast.func -> string option) ->
  options:Parcoach.Driver.options ->
  Minilang.Ast.program ->
  (Minilang.Ast.func * string) list

(** [key ~options_digest ~digest_of ~callees_of fname] is the key {!keys}
    gives the function [fname] of a program whose functions have the
    digests [digest_of] and the defined direct callees [callees_of]
    (sorted, as {!Parcoach.Callgraph.summary} lists them), under options
    of digest [options_digest]. *)
val key :
  options_digest:string ->
  digest_of:(string -> string) ->
  callees_of:(string -> string list) ->
  string ->
  string

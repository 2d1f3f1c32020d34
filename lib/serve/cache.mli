(** Bounded per-function summary cache and the one summary-reuse path.

    Maps a {!Hash} key to an {!entry}: the function the summary was
    computed from (kept for the collision guard and location relocation),
    its {!Parcoach.Driver.func_report}, and a memo of that report's
    rendered JSON fragment.  Thread-safe: the farm's [Par.iter_shards]
    workers steal batches across shard caches, so several domains can
    use one cache.  Eviction is FIFO over insertion order once
    [capacity] entries are exceeded.  {!analyze} is the only way in: the
    daemon and the farm both look summaries up, relocate and populate
    through it. *)

type entry = {
  func : Minilang.Ast.func;
  report : Parcoach.Driver.func_report;
  mutable json : string option;
      (** {!Parcoach.Json_report.func_json} of [report], once rendered. *)
}

type t

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
}

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 summaries. *)

(** What one {!analyze} call derived, kept for the next call on the
    same file: each function's digest, summary, key and entry, the
    interprocedural closure and the report.  The daemon keeps one per
    file; the farm passes none. *)
type carry

(** An empty carry: the first call with it keys every function. *)
val carry : unit -> carry

(** [analyze t ~options program] is {!Parcoach.Driver.analyze} of the
    valid [program] with every function whose summary [t] holds served
    from it.  Each function is keyed with the bytes {!Hash.keys} gives
    (timed as phase ["hash"] in [timings]; [digest] and [summary] are
    its memos) and looked up, which counts a hit or a miss; the lookups,
    relocations and insertions are timed as ["lookup"], under one lock
    per batch.  A hit on the very function the entry was stored with is
    reused as is; any other hit must be structurally equal, is relocated
    onto the fresh source layout ({!Relocate}) and written back, so
    repeated lookups at that layout hit physically.  The misses are
    analysed and added.  In interprocedural mode the program's
    {!Parcoach.Callgraph.closure} (timed as ["closure"]) goes to the
    driver.  The report is byte-identical to a cold
    {!Parcoach.Driver.analyze} whatever mix of cached and fresh summaries
    produced it.  Returns the report, each function's entry in source
    order (an entry whose report is unchanged keeps its fragment memo; a
    rewritten or fresh one has none) and the number of functions
    reused.

    With [carry], from the last call on an earlier version of the same
    program with the same options, only the functions whose own digest
    or call list changed, and every function that reaches one of them
    through the call graph, are keyed again; a function physically
    equal to the earlier one keeps its digest and summary without asking
    the memos.  Every key is still looked up, since the cache may have
    evicted or replaced its entry.  The closure is recomputed only when
    a call list, a collective-calling flag or the set of names changed,
    and when every lookup returns the entry the last call ended with, so
    is the report.  [carry] is then updated (emptied when a name is
    defined twice). *)
val analyze :
  t ->
  options:Parcoach.Driver.options ->
  ?jobs:int ->
  ?digest:(Minilang.Ast.func -> string option) ->
  ?summary:(Minilang.Ast.func -> Parcoach.Callgraph.summary option) ->
  ?carry:carry ->
  ?timings:Parcoach.Timings.t ->
  Minilang.Ast.program ->
  Parcoach.Driver.report * entry list * int

val stats : t -> stats

(** Drop every entry (stats are reset too). *)
val clear : t -> unit

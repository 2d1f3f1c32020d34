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

(** [analyze t ~options program] is {!Parcoach.Driver.analyze} of the
    valid [program] with every function whose summary [t] holds served
    from it.  Each function is keyed with {!Hash.keys} (timed as phase
    ["hash"] in [timings]; [digest] and [summary] are its memos, and
    [summary] is the driver's too) and looked up, which counts a hit or
    a miss.  A hit on the very function the entry was stored with is
    reused as is; any other hit must be structurally equal, is relocated
    onto the fresh source layout ({!Relocate}) and written
    back, so repeated lookups at that layout hit physically.  The
    misses are analysed and added.  The report is byte-identical to a
    cold {!Parcoach.Driver.analyze} whatever mix of cached and fresh
    summaries produced it.  Returns the report, each function's entry
    in source order (an entry whose report is unchanged keeps its
    fragment memo; a rewritten or fresh one has none) and the number of functions reused. *)
val analyze :
  t ->
  options:Parcoach.Driver.options ->
  ?jobs:int ->
  ?digest:(Minilang.Ast.func -> string option) ->
  ?summary:(Minilang.Ast.func -> Parcoach.Callgraph.summary option) ->
  ?timings:Parcoach.Timings.t ->
  Minilang.Ast.program ->
  Parcoach.Driver.report * entry list * int

val stats : t -> stats

(** Drop every entry (stats are reset too). *)
val clear : t -> unit

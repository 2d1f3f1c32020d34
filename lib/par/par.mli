(** The one work-handout policy for batch fan-outs over OCaml 5 domains.

    The static driver's per-function analyses, the explorer's replay
    waves and the farm's shard batches all run through {!iter_shards}.
    Work is split into shards of numbered items; worker [w] owns the
    shards [s] with [s mod jobs = w].  Workers claim items with one
    [Atomic.fetch_and_add] per item, so every item runs exactly once
    whatever the interleaving, and callers that write each item's result
    into its own slot get output independent of the job count.  The
    caller is worker 0: [jobs:1] spawns no domain and runs the items in
    [(shard, i)] order. *)

(** [iter_shards ~jobs sizes f] calls [f ~worker ~shard i] exactly once
    for each [shard < Array.length sizes] and [i < sizes.(shard)], and
    returns how many items ran on a worker other than their shard's
    owner.

    Within a shard, items are claimed in increasing [i].  Worker [w]
    first drains the shards it owns ([w], [w + jobs], ...), then claims
    from the others, scanning from shard [w mod (Array.length sizes)].
    At most [min jobs total_items - 1] helper domains are spawned, and
    all of them are joined before the call returns.

    If a call to [f] raises, no further item is claimed; once every
    worker has stopped, the exception of the raising item with the
    lowest [(shard, i)] is re-raised with its backtrace.  Every item of
    a shard below that item's index has then run.

    @raise Invalid_argument if [jobs < 1]. *)
val iter_shards :
  jobs:int -> int array -> (worker:int -> shard:int -> int -> unit) -> int

(** [iter ~jobs n f] is the one-shard case: [f ~worker i] for each
    [i < n]. *)
val iter : jobs:int -> int -> (worker:int -> int -> unit) -> unit

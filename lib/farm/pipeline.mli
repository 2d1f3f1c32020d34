(** The corpus pipeline: mass-generate programs, dedup and shard them by
    structural fingerprint, and push every unique program through
    validate → static analysis (with per-shard summary-cache reuse
    across structurally similar mutants) → differential oracle, batched
    across domains by {!Par.iter_shards} (each worker drains the shards
    it owns, then claims batches from the others).

    Two runners produce identical observations:

    - {!run} — the farm fast path: one in-memory AST per program,
      fingerprint dedup before any expensive stage, per-shard
      {!Serve.Cache} summary reuse (mutants of one skeleton share every
      untouched function), one lowering per program shared across
      simulation seeds.
    - {!run_serial} — the CLI-equivalent baseline: what a shell script
      around [parcoachc] + [runsim] does today.  Each program is
      pretty-printed to source once and every "invocation" re-parses,
      re-validates and (for instrumented runs) re-analyzes it, records
      event traces and renders its report and outcome as text (the
      CLI's unconditional output), sharing nothing across invocations
      or programs.

    The tests check that the two agree; the benchmark's [farm] workload
    checks it too, on a pre-generated corpus ({!run_entries} vs
    {!run_serial_entries}). *)

type spec = {
  seed : int;
  families : int;  (** Distinct skeleton traces. *)
  variants : int;  (** Programs per family: the clean base + injected mutants. *)
  sim : Oracle.sim_spec;
  handicap : Oracle.handicap option;
}

val default_spec : spec

type entry = {
  id : int;
  family : int;
  variant : int;
  case : Gen.case;
  program : Minilang.Ast.program;
  fp : string;  (** Structural fingerprint of [program]. *)
  family_fp : string;  (** Fingerprint of the family's clean base (shard key). *)
  digests : (Minilang.Ast.func * string) list;
      (** Each function of [program] with its {!Serve.Hash.func_digest},
          the ingredients of [fp]; the summary cache keys with them
          instead of hashing every function again. *)
}

type verdict = { entry_id : int; fp : string; obs : Oracle.obs }

type stats = {
  programs : int;
  unique : int;
  duplicates : int;
  shards : int;
  batches : int;
  stolen : int;  (** Batches a worker claimed from a foreign shard. *)
  cache_hits : int;
  cache_misses : int;
}

type result = {
  verdicts : verdict array;  (** Indexed by entry id. *)
  violations : (int * Oracle.violation) list;  (** Sorted by entry id. *)
  stats : stats;
}

(** Deterministic function of [spec] only. *)
val corpus : ?timings:Parcoach.Timings.t -> spec -> entry array

(** Byte-stable corpus manifest ([farmctl --manifest]): header plus one
    line per entry with family/variant/shard/fingerprint/case. *)
val manifest : ?shards:int -> spec -> entry array -> string

(** Fingerprint every entry, keeping each function's digest in
    [digests] (idempotent); {!run} and the [-entries] runners expect
    fingerprinted input. *)
val fingerprinted :
  ?timings:Parcoach.Timings.t -> entry array -> entry array

(** The farm fast path on a pre-generated, fingerprinted corpus.
    [jobs] domains ({!Par.iter_shards}: worker [w] owns shards [w],
    [w + jobs], ...), [shards] fingerprint shards each with its own
    summary cache, [batch] entries per work unit.  At [jobs:1] the
    shards run in order, each batch in order, on the calling domain.
    Verdicts are identical for every [jobs]/[shards]/[batch]
    combination (summary reuse is relocation-exact). *)
val run_entries :
  ?timings:Parcoach.Timings.t ->
  ?jobs:int ->
  ?shards:int ->
  ?batch:int ->
  spec ->
  entry array ->
  result

(** {!corpus} + {!fingerprinted} + {!run_entries}. *)
val run :
  ?timings:Parcoach.Timings.t ->
  ?jobs:int ->
  ?shards:int ->
  ?batch:int ->
  spec ->
  result

(** The CLI-equivalent serial baseline (see above) on a pre-generated,
    fingerprinted corpus: each entry pays parse/validate/analyze/render
    per simulated invocation. *)
val run_serial_entries :
  ?timings:Parcoach.Timings.t -> spec -> entry array -> result

(** {!corpus} + {!fingerprinted} + {!run_serial_entries}. *)
val run_serial : ?timings:Parcoach.Timings.t -> spec -> result

(** [violates ?handicap ~sim ~vkind case]: does decoding and judging
    [case] still produce a violation of kind [vkind]?  The minimizer's
    check predicate. *)
val violates :
  ?handicap:Oracle.handicap ->
  sim:Oracle.sim_spec ->
  vkind:string ->
  Gen.case ->
  bool

(** Minimize the first [limit] violating entries (default 2): delta-debug
    each entry's decision trace under {!violates}; returns
    [(entry, minimized case, minimized program)] per distinct violation
    kind, smallest first. *)
val minimized_reproducers :
  ?limit:int ->
  spec ->
  result ->
  entry array ->
  (entry * Oracle.violation * Gen.case * Minilang.Ast.program) list

(** The [parcoachd] analysis daemon: long-lived state (per-function
    chunk cache with validation memos, per-function summary cache with
    rendered-fragment memos) plus the line-delimited JSON protocol.

    {2 Protocol}

    One JSON object per line on stdin (or a Unix-socket connection), one
    JSON object per line back.  Requests carry an [id] that is echoed
    verbatim in the response (responses may arrive out of order when the
    daemon runs a worker pool).

    {v
    {"id":1,"method":"analyze","params":{
       "source":"func main() { MPI_Barrier(); }",
       "file":"demo.hml",          // optional, for warning locations
       "races":true, "interprocedural":true, "taint_filter":true,
       "initial_multithreaded":false, "level":"multiple",
       "jobs":2                    // optional per-request domain count
    }}
    v}

    Successful analyses answer
    [{"id":1,"ok":true,"valid":true,"report":{...},"warnings":N,
      "cache":{"hits":h,"misses":m,"entries":e},"timings":{...}}]
    where [report] is exactly {!Parcoach.Json_report} output, [cache]
    counts this request's summary reuse, and [timings] is
    {!Parcoach.Timings} output (ns per phase: [parse], [hash], [cfg],
    [pword], [phase1..3], [races], [render]).  Invalid programs answer
    [{"id":1,"ok":true,"valid":false,"issues":[...]}] — the same issue
    format [parcoachc --json] prints.  Other methods: ["ping"],
    ["stats"], ["clear"], ["shutdown"].  ["stats"] answers the summary
    cache's lifetime counters, the number of cached function [chunks],
    and [memo_hits]: how many function validations and JSON fragments
    were served from their memos. *)

type t

(** [create ()] — fresh daemon state.  [capacity] bounds the summary
    cache; [jobs] is the default per-request analysis domain count
    (requests can override). *)
val create : ?capacity:int -> ?jobs:int -> unit -> t

val cache : t -> Cache.t

(** Outcome of one analysis request, exposed for the benchmark and
    tests. *)
type analysis = {
  report : Parcoach.Driver.report;
  issues : Minilang.Validate.issue list;  (** Non-fatal validation issues. *)
  reused : int;  (** Functions served from the summary cache. *)
  analysed : int;  (** Functions (re-)analysed this request. *)
  timings : Parcoach.Timings.t;
}

(** Analyse one source text against the warm state.  [Error issues] when
    the program does not parse or validate.  The merged report is
    byte-identical to a cold {!Parcoach.Driver.analyze} of the same
    source whatever mix of cached and fresh functions produced it. *)
val analyze_source :
  t ->
  ?options:Parcoach.Driver.options ->
  ?jobs:int ->
  ?file:string ->
  string ->
  (analysis, Minilang.Validate.issue list) result

(** Handle one already-parsed request object. *)
val handle_request : t -> Json.t -> Json.t

(** Handle one protocol line (parse + dispatch + render). *)
val handle_line : t -> string -> string

(** Serve a channel pair until EOF or a [shutdown] request.  [pool] > 1
    dispatches requests onto that many worker domains (responses are
    written line-atomically, correlated by [id]); the pool is drained
    before returning.  A response's [report], [valid] and [warnings] do
    not depend on [pool]; its [cache] counters and the [stats] totals do,
    since concurrent requests share the summary cache and their order of
    arrival there depends on the interleaving. *)
val serve : ?pool:int -> t -> in_channel -> out_channel -> unit

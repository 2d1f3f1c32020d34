(** The [parcoachd] analysis daemon: long-lived state (per-function
    chunk cache with validation memos, per-file layouts, per-function
    summary cache with rendered-fragment memos) plus the line-delimited
    JSON protocol.

    {2 Per-file state}

    For each [file] name ([analyze]'s [file] parameter, ["<request>"]
    when absent) the daemon keeps one source: the last one whose chunk
    split was clean, with its chunk offsets, lines, columns and placed
    chunks.  The next request for that name is compared with it
    ({!Chunker.resplit}): chunks before the common prefix and after the
    common suffix are carried over without being copied, hashed or
    looked up, and only the bytes between them are split again.  A
    request that falls back to the whole-file parse leaves the file's
    source as it was.

    The file also keeps what its last request derived, by the physical
    identity of the placed functions its layout carries: each function's
    validation memo and placed issues, the arity table and duplicate
    names, and each function's summary key and cache entry with the
    interprocedural closure ({!Cache.carry}).  A request validates again
    only the functions whose chunk changed (and, when a parameter count
    changed, asks every memo), keys again only the functions whose own
    digest or call list changed and their transitive callers, still
    looks up every key, and renders each function from its entry's
    fragment memo.  A byte-identical re-request, or a return to an
    unchanged file, costs the decode, one equality scan of the source,
    one lookup per function, the report's concatenation and the
    encode.  At most 64 file names are kept (the table is reset
    when a new one would exceed that).  When the chunk cache fills
    up (2048 texts) it drops the texts no kept layout holds; only when
    the layouts' chunks alone fill it are both tables reset.  ["clear"]
    resets both.

    {2 Protocol}

    One JSON object per line on stdin (or a Unix-socket connection), one
    JSON object per line back, in request order: each request is
    answered before the next line is read.  Requests carry an [id] that
    is echoed verbatim in the response.  A response depends only on the
    requests before it, [cache] counts and [stats] totals included.

    {v
    {"id":1,"method":"analyze","params":{
       "source":"func main() { MPI_Barrier(); }",
       "file":"demo.hml",          // optional, for warning locations
       "races":true, "interprocedural":true, "taint_filter":true,
       "initial_multithreaded":false, "level":"multiple",
       "jobs":2                    // optional per-request domain count
    }}
    v}

    [analyze] parameter types: [source] (required), [file] and [level]
    are strings; [races], [interprocedural], [taint_filter], [requests]
    and [initial_multithreaded] are booleans (default [false]); [jobs] is
    an integer [>= 1]; [only] is a comma-separated string or a list of
    warning-class strings.  An optional parameter may be omitted; one
    present with another JSON type (["jobs":"2"], ["races":"yes"],
    [null]) is answered [{"id":1,"ok":false,"error":"analyze: 'jobs' must
    be an integer"}] (or [a boolean] / [a string]).

    Successful analyses answer
    [{"id":1,"ok":true,"valid":true,"report":{...},"warnings":N,
      "cache":{"hits":h,"misses":m,"entries":e},"timings":{...}}]
    where [report] is exactly {!Parcoach.Json_report} output, [cache]
    counts this request's summary reuse, and [timings] is
    {!Parcoach.Timings} output: nanoseconds per phase, in the order they
    first ran, a phase that did not run left out.  The phases:
    [respond] (reading the parameters, and assembling the response
    around the report), [parse] (the re-split and the parse of new
    chunks), [validate], [hash] (summary keys), [lookup] (summary-cache
    lookups, relocation of moved hits and insertion of the misses),
    [closure] (the interprocedural may-collect closure and call colours,
    when a call edge, a collective call or a name changed), the analysis
    of the misses ([cfg], [pword], [phase1], [phase2], [phase3],
    [requests], [races]) and [render] (the report's JSON).  Only the
    decode of the request line, the dispatch and the rendering of
    [timings] itself fall outside them.  Invalid programs answer
    [{"id":1,"ok":true,"valid":false,"issues":[...]}] — the same issue
    format [parcoachc --json] prints.  Other methods: ["ping"],
    ["stats"], ["clear"], ["shutdown"].  ["stats"] answers the summary
    cache's lifetime counters, the number of cached function [chunks],
    and [memo_hits]: how many function validations and JSON fragments
    were served from their memos.  A chunk's validation memo holds its
    chunk-relative issues and is shifted to wherever the chunk is
    placed, so [memo_hits.validation] also counts hits on chunks that
    moved (a layout-only edit validates nothing again). *)

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
  entries : Cache.entry list;
      (** Each function's summary-cache entry, in source order (see
          {!Cache.analyze}); the fragment memos render the response. *)
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

(** Handle one protocol line (parse + dispatch + render).  {!serve}
    decodes each line once and answers from the decoded value. *)
val handle_line : t -> string -> string

(** Serve a channel pair: answer each non-blank line with
    {!handle_line}'s response, flushed before the next line is read,
    until a [shutdown] request ([`Shutdown], after answering it) or EOF
    ([`Eof]).  Lines after a [shutdown] are not read.  [parcoachd]
    serves stdin/stdout this way, or one socket connection after
    another: a connection that ends at EOF or fails to read or write
    (the client hung up; SIGPIPE is ignored in socket mode) is dropped
    and the next one is accepted, while a [shutdown] ends the daemon,
    which removes its socket file and exits 0.  SIGINT and SIGTERM also
    remove the socket file before the daemon exits (130, 143). *)
val serve : t -> in_channel -> out_channel -> [ `Shutdown | `Eof ]

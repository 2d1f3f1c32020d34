(** Whole-program driver: runs the three static phases on every function
    and assembles the report consumed by {!Instrument} and the CLI. *)

type options = {
  initial_word : Pword.word;
      (** Initial parallelism-word prefix at function entrances (the
          paper's compile-time "initial level" option; default empty). *)
  provided_level : Mpisim.Thread_level.t;
      (** Level the program is assumed to initialise MPI with. *)
  taint_filter : bool;
      (** Restrict phase 3 to rank-dependent conditionals. *)
  interprocedural : bool;
      (** Extension: treat calls to collective-bearing functions as
          pseudo-collective phase-3 sites (see {!Callgraph}). *)
  races : bool;
      (** Run the MHP-based shared-memory race pass ({!Races}) and emit
          data-race warnings. *)
  requests : bool;
      (** Run the request-lifecycle pass ({!Requests}); also feeds the
          races pass's happens-before refinement when both are on. *)
}

val default_options : options

type func_report = {
  fname : string;
  graph : Cfg.Graph.t;
  pword : Pword.t;
  phase1 : Monothread.result;
  phase2 : Concurrency.result;
  phase3 : Interproc.result;
  races : Races.result option;  (** [Some] iff [options.races]. *)
  requests : Requests.result option;  (** [Some] iff [options.requests]. *)
  warnings : Warning.t list;
  cc_sites : int list;  (** Collective nodes that get a [CC] check. *)
}

type report = {
  program : Minilang.Ast.program;
  options : options;
  funcs : func_report list;
  call_colors : (string * int) list;
      (** CC colours of collective-bearing functions (interprocedural
          mode; empty otherwise). *)
}

(** Run the full static analysis on a validated program.  [graphs], when
    given, must be the CFGs of the program's functions in source order
    (from {!Cfg.Build.of_program}): the analysis then reuses them instead
    of rebuilding, as PARCOACH does inside the compiler.

    [jobs] bounds the number of OCaml 5 domains analysing functions in
    parallel ({!Par.iter}); it defaults to
    [Domain.recommended_domain_count ()], never spawns more domains than
    there are functions to analyse, and [jobs:1] spawns none.  Each
    result lands in its source-order slot, so the report (warnings, CC
    sites, JSON) is byte-identical for every job count.

    [reuse] injects pre-computed per-function reports (the daemon's
    summary-cache hits): functions for which it returns [Some] skip
    analysis entirely, the rest are analysed and everything is merged in
    source order.  [closure], in interprocedural mode, stands in for
    {!Callgraph.closure}[ program] (a caller that keeps it from an
    earlier analysis of the same call graph skips the fixpoint).  [timings]
    accumulates per-phase wall-clock across all analysed functions
    ([cfg], [pword], [phase1..3], [races], ...). *)
val analyze :
  ?options:options ->
  ?graphs:Cfg.Graph.t list ->
  ?jobs:int ->
  ?reuse:(Minilang.Ast.func -> func_report option) ->
  ?closure:Callgraph.closure ->
  ?timings:Timings.t ->
  Minilang.Ast.program ->
  report

(** Keep only the warnings whose class is in [only] ([None] = identity).
    Shared by [parcoachc --only] and the daemon's [only] parameter; the
    vocabulary is {!Warning.all_classes}. *)
val filter_classes : report -> only:string list option -> report

val all_warnings : report -> Warning.t list

val warning_count : report -> int

(** Warning counts per class name, sorted by class. *)
val warnings_by_class : report -> (string * int) list

val func_report : report -> string -> func_report option

(** Printable summary: per-function warnings plus totals. *)
val pp_report : report Fmt.t

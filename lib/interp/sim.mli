(** The hybrid MPI+OpenMP execution simulator: executes a validated
    program on simulated ranks×threads with a seeded scheduler, so
    interleavings (and the bugs that depend on them) are reproducible.

    Outcome taxonomy: [Aborted] — an instrumentation check stopped the
    program cleanly before the faulty collective (the paper's §3 goal);
    [Fault] — the error reached the simulated MPI library; [Deadlock] —
    no task can run. *)

type error =
  | Mismatch of Mpisim.Engine.rank_call list
  | Cc_divergence of Mpisim.Engine.rank_call list
  | Concurrent_collective of { rank : int; site1 : string; site2 : string }
  | Concurrent_region of { rank : int; region : int; site : string }
  | Multithreaded_region of { rank : int; site : string }
  | Eval_error of { rank : int; site : string; message : string }
  | Level_violation of {
      rank : int;
      site : string;
      required : Mpisim.Thread_level.t;
      provided : Mpisim.Thread_level.t;
    }

type outcome =
  | Finished
  | Aborted of error  (** Clean stop by a verification check. *)
  | Fault of error  (** The error reached the MPI library. *)
  | Deadlock of string list  (** Descriptions of the blocked tasks. *)
  | Step_limit

type stats = {
  mutable steps : int;
  mutable work : int;  (** Total [compute] cost executed. *)
  mutable counter_checks : int;
  mutable cc_calls : int;
  mutable tasks_spawned : int;
  mutable trace : (int * int * int) list;  (** (rank, tid, value), reversed. *)
  degrees : int array;
      (** Runnable-task counts at the first scheduling steps, in step
          order: the branching structure {!Explore} enumerates.  Only the
          first [ndegrees] entries are meaningful. *)
  mutable ndegrees : int;
}

(** A request-lifecycle violation observed by the runtime checker (in the
    spirit of the dynamic race oracle {!Raceck}): recorded, deduplicated,
    never aborting, so a run reports every distinct violation it
    witnessed.  [site] is where the violation fired; [start_site] is
    where the offending request was started. *)
type lifecycle =
  | Leaked_request of { rank : int; site : string }
      (** Request started at [site] but never completed by [MPI_Wait] or
          a successful [MPI_Test] (reported only on [Finished] runs). *)
  | Double_wait of { rank : int; site : string; start_site : string }
      (** [MPI_Wait]/[MPI_Test] at [site] on an already-completed
          request. *)
  | Stale_read of { rank : int; site : string; start_site : string }
      (** Statement at [site] accessed the buffer of an in-flight
          [MPI_Irecv]/[MPI_Iallreduce]. *)

type result = {
  outcome : outcome;
  stats : stats;
  engine : Mpisim.Engine.t;
  lifecycle : lifecycle list;
      (** Lifecycle violations in discovery order (empty when the runtime
          checker saw none). *)
}

type config = {
  nranks : int;
  default_nthreads : int;  (** Team size when [num_threads] is absent. *)
  schedule : [ `Round_robin | `Random of int | `Scripted of int list ];
      (** [`Scripted choices]: at step [k] pick the [choices[k]]-th runnable
          task (modulo the runnable count); round-robin after the script
          runs out. *)
  max_steps : int;
  entry : string;
  record_trace : bool;
  thread_level : Mpisim.Thread_level.t;
      (** Level the simulated MPI library was initialised with. *)
}

val default_config : config

val pp_lifecycle : lifecycle Fmt.t

val pp_outcome : outcome Fmt.t

val outcome_to_string : outcome -> string

(** Exploration instrumentation handed to {!run}: a preallocated
    per-step state-fingerprint buffer.  Reusable across runs (each run
    resets it), so one probe per worker amortises the allocation over
    thousands of replays. *)
type probe

(** @raise Invalid_argument if [depth < 0]. *)
val make_probe : depth:int -> probe

(** Number of fingerprints the last run recorded (a run that aborts
    mid-step leaves later slots stale). *)
val probe_recorded : probe -> int

(** Fingerprint of the state just before scheduling step [k] of the last
    run.  @raise Invalid_argument unless [0 <= k < probe_recorded]. *)
val probe_fingerprint : probe -> int -> int

(** A program lowered once by {!make} (see {!Compile}).  Immutable, so
    one compiled form is safely shared across exploration worker
    domains. *)
type compiled = Compile.t

val make : Minilang.Ast.program -> compiled

(** Execute a compiled program.  [probe], when given, records state
    fingerprints for the probe's first [depth] steps (construct ids are
    the canonical statement uids of {!Compile}, so fingerprints are
    comparable across schedules).  [race], when given, feeds every
    slot access and synchronisation event of the run to the dynamic race
    oracle ({!Raceck}); query it with {!Raceck.races} afterwards.
    [recorder], when given, records per-step dependence footprints,
    runnable sets and vector-clock snapshots for the DPOR explorer
    ({!Dpor}); it supplies its own clock oracle, so [race] is ignored
    alongside it.
    @raise Invalid_argument if the entry function is missing or takes
    parameters. *)
val run_compiled :
  ?config:config -> ?probe:probe -> ?race:Raceck.t ->
  ?recorder:Dpor.recorder -> ?on_engine:(Mpisim.Engine.t -> unit) ->
  compiled -> result

(** Execute a validated program: {!make} + {!run_compiled}.  [probe],
    when given, records state fingerprints for the probe's first [depth]
    steps; [race] attaches the dynamic race oracle; [recorder] the DPOR
    step recorder; [on_engine] receives the freshly created MPI engine
    before any rank runs, so online consumers (e.g.
    {!Mpisim.Engine.subscribe} hooks) see every collective arrival.
    @raise Invalid_argument if the entry function is missing or takes
    parameters. *)
val run :
  ?config:config -> ?probe:probe -> ?race:Raceck.t ->
  ?recorder:Dpor.recorder -> ?on_engine:(Mpisim.Engine.t -> unit) ->
  Minilang.Ast.program -> result

(** Trace of [print] events in execution order: (rank, tid, value). *)
val trace : result -> (int * int * int) list

val is_finished : result -> bool

val is_clean_abort : result -> bool

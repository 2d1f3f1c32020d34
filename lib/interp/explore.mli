(** Bounded schedule-space exploration (stateless model checking, lite):
    systematically enumerate the scheduler's choices at the first
    [branch_depth] steps, classify every outcome, and keep a witness
    schedule per class — racing schedules of interleaving-dependent bugs
    are found deterministically instead of by seed sampling.

    {!outcomes} prunes with state fingerprints (prefixes converging to
    the same simulator state are explored once, their subtree counts
    credited) and can replay each breadth-first wave on OCaml 5 domains;
    the summary is byte-identical whatever [jobs] is.
    {!outcomes_reference} is the original unpruned depth-first engine,
    kept as test oracle.  {!outcomes_dpor} replaces prefix enumeration
    with dynamic partial-order reduction: one representative schedule
    per Mazurkiewicz trace, backtracking only at racing steps. *)

(** Accounting specific to {!outcomes_dpor}. *)
type dpor_stats = {
  representatives : int;
      (** Distinct trace representatives executed
          ([replays - fp_hits]). *)
  backtrack_points : int;
      (** Backtrack jobs scheduled at racing step pairs. *)
  sleep_skips : int;  (** Candidate branches suppressed by sleep sets. *)
  fp_hits : int;
      (** Replays that converged to an already-fingerprinted state (their
          post-divergence analysis is skipped). *)
}

type summary = {
  finished : int;
  aborted : int;
  faulted : int;
  deadlocked : int;
  step_limited : int;
  runs : int;  (** Schedules represented (including pruned subtrees). *)
  replays : int;  (** Simulator executions actually performed. *)
  pruned : int;
      (** Runs represented without a replay: fingerprint-credited
          subtrees in {!outcomes}, sleep-set suppressions in
          {!outcomes_dpor}, [0] in {!outcomes_reference}.  {b Invariant}
          (every mode): [runs = replays + pruned]. *)
  witnesses : (string * int list) list;
      (** First witness script observed per class name, in observation
          order. *)
  dpor : dpor_stats option;
      (** [Some _] iff the summary came from {!outcomes_dpor}. *)
}

val class_name : Sim.outcome -> string

(** Explore breadth-first with fingerprint pruning, replaying at most
    [budget] schedules ([runs] may exceed [budget] thanks to pruning)
    and branching over the first [branch_depth] choices; wave replays
    run on [jobs] domains.  [interp] selects the interpreter core:
    [`Compiled] (default) lowers the program once and shares the
    immutable compiled form across all workers, [`Reference] replays
    with the AST tree-walker.  Both produce the same summary.
    [config.schedule] is ignored.
    @raise Invalid_argument if [branch_depth < 0], [budget < 0] or
    [jobs < 1]. *)
val outcomes :
  ?branch_depth:int ->
  ?budget:int ->
  ?jobs:int ->
  ?interp:[ `Compiled | `Reference ] ->
  config:Sim.config ->
  Minilang.Ast.program ->
  summary

(** The original unpruned sequential depth-first enumeration, on the
    reference interpreter ([Sim.run_reference]): one replay per run
    ([replays = runs], [pruned = 0]), budget bounds runs. *)
val outcomes_reference :
  ?branch_depth:int ->
  ?budget:int ->
  config:Sim.config ->
  Minilang.Ast.program ->
  summary

(** Dynamic partial-order reduction (source-set/sleep-set style): per
    replay, record every step's dependence footprint ({!Dpor}) and
    vector-clock ordering, then backtrack only at pairs of steps that
    were dependent yet unordered — one representative per Mazurkiewicz
    trace instead of one node per schedule prefix.  Composes with the
    fingerprint table (replays converging to a seen state skip their
    post-divergence analysis) and replays each wave on [jobs] domains
    with a byte-identical summary whatever [jobs] is.

    Counting semantics differ from {!outcomes}: each replay counts once
    for its outcome class (no subtree crediting), so per-class counts
    are representative counts, not schedule-tree counts; [pruned] counts
    sleep-set suppressions and the invariant [runs = replays + pruned]
    holds.  The contract on classes is {e coverage}: every outcome class
    {!outcomes_reference} reaches within its divergence window is also
    reached, provided the racing steps lie inside the recording window
    ([branch_depth + 32] steps — size [branch_depth] to the interesting
    prefix); the deep fatal-step rule routinely reaches {e more} classes
    than a budgeted enumeration (checked by the tests).
    @raise Invalid_argument if [branch_depth < 0], [budget < 0] or
    [jobs < 1]. *)
val outcomes_dpor :
  ?branch_depth:int ->
  ?budget:int ->
  ?jobs:int ->
  config:Sim.config ->
  Minilang.Ast.program ->
  summary

val pp_summary : summary Fmt.t

val summary_to_string : summary -> string

(** Did some explored schedule reach this class ("finished", "aborted",
    "fault", "deadlock", "step-limit")? *)
val reaches : summary -> string -> bool

(** Replay a witness script. *)
val replay : config:Sim.config -> Minilang.Ast.program -> int list -> Sim.result

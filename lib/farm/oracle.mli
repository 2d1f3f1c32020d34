(** The differential oracle: runs one program through the static
    analysis and the seeded simulator and checks that the dynamic
    evidence is covered by the static verdicts —

    - {b races}: every race the FastTrack oracle ({!Interp.Raceck})
      observes must be covered by a static [Data_race] pair
      ([dynamic ⊆ static], the property the paper's race refinement
      claims);
    - {b CC vs deadlock}: a program the static side certifies clean must
      finish under the simulator, both bare and under exhaustive CC
      instrumentation; and whenever the bare run deadlocks, the
      CC-instrumented run must convert the divergence into a clean abort
      rather than deadlock itself (the paper's §3 goal).

    Following the paper's selective-instrumentation idea, the
    CC-instrumented runs are {e demand-driven}: the judge only ever
    consults them when the static report is (effectively) clean or a
    bare run deadlocks, so for every other program the instrumentation,
    its compilation and its runs are elided ([dyn.cc = None]).

    [handicap] deliberately weakens the checker (drops one static race
    edge, or blinds it to collective-mismatch warnings) so the farm's
    detection and minimization machinery can be drilled end to end. *)

type sim_spec = {
  nranks : int;
  nthreads : int;
  seeds : int list;  (** One bare + one instrumented run per seed. *)
  max_steps : int;
}

val default_sim : sim_spec

(** Analysis options the oracle judges against: races on,
    interprocedural on, taint filter on (the paper's full setting). *)
val options : Parcoach.Driver.options

type handicap =
  | Drop_race_edge  (** Hide the first static race pair (a lost MHP edge). *)
  | Blind_mismatch  (** Ignore collective-mismatch warnings. *)

val handicap_name : handicap -> string

val handicap_of_name : string -> handicap option

(** One soundness disagreement.  [seed] is the index into
    [sim_spec.seeds] of the run that exposed it ([-1] for race coverage,
    which aggregates seeds). *)
type violation = { vkind : string; seed : int; detail : string }

(** Dynamic evidence: outcome classes per seed
    ({!Interp.Explore.class_name}) for the bare and the
    exhaustively CC-instrumented program, plus the union of observed
    race keys.  [cc = None] means the instrumented runs were elided
    because the judge would never consult them (static warnings present
    and no bare deadlock). *)
type dyn = {
  plain : string list;
  cc : string list option;
  races : (string * string * string) list;
}

(** Everything the farm records per program; two structurally equal
    programs get equal observations whatever pipeline produced them
    (modulo CC elision — see {!obs_agree}). *)
type obs = {
  static_warnings : int;
  static_classes : (string * int) list;
  static_races : int;
  plain : string list;
  cc : string list option;
  dyn_races : int;
  violations : violation list;
}

(** Agreement between two pipelines' observations of the same program:
    equal on every field, except that an elided CC side ([cc = None])
    agrees with any measured one — the judge provably never consulted
    it. *)
val obs_agree : obs -> obs -> bool

(** The configuration a [runsim] CLI invocation uses for one seeded run
    of [sim]: the farm's own configuration, except that the CLI always
    records the event trace.  The serial baseline uses this. *)
val cli_config_of : sim:sim_spec -> int -> Interp.Sim.config

(** The static report's data races, as keys [(var, site1, site2)] with
    the two sites (rendered by {!Minilang.Loc.to_string}) in string
    order, as {!Interp.Raceck} orders the sites of an observed race. *)
val static_race_keys :
  Parcoach.Driver.report -> (string * string * string) list

(** The races a race oracle observed, as keys [(var, site1, site2)];
    {!Interp.Raceck} orders the two sites by string, and the static
    race keys the judge compares them with are ordered the same way. *)
val dynamic_race_keys :
  Interp.Raceck.t -> (string * string * string) list

(** [judged ?handicap ~report dyn]: the observation of a program whose
    static report is [report] and whose runs gave [dyn] ([dyn.races]
    sorted and without duplicates) — the judgement of the static
    summary against the dynamic evidence. *)
val judged : ?handicap:handicap -> report:Parcoach.Driver.report -> dyn -> obs

(** [observe ?handicap ~sim ~report program]: run bare, instrument on
    demand, {!judged}.  [timings] accumulates
    [instrument]/[compile]/[simulate]. *)
val observe :
  ?handicap:handicap ->
  ?timings:Parcoach.Timings.t ->
  sim:sim_spec ->
  report:Parcoach.Driver.report ->
  Minilang.Ast.program ->
  obs

val obs_to_string : obs -> string

val violation_to_string : violation -> string

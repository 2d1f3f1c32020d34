(** MUST-style collective matching over a tree-based overlay network
    (Hilbrich et al., EuroMPI 2013 — reference [2] of the paper); a
    centralized Marmot-like checker is the degenerate overlay with fan-out
    equal to the process count.  {!check} consumes the per-rank traces
    recorded by {!Mpisim.Engine} after the run; {!Stream} checks the same
    events online, inline in the engine's arrival hook.  Both compare a
    round with {!round_agrees} and build their report with
    {!report_of_rounds}. *)

type event = Mpisim.Engine.trace_event

type tree = {
  fanout : int;
  nranks : int;
  layers : int array array;
      (** [layers.(l).(i)]: parent of node [i] of layer [l]; layer 0 holds
          the leaves (one per rank). *)
}

(** @raise Invalid_argument if [fanout < 2] or [nranks <= 0]. *)
val build_tree : fanout:int -> nranks:int -> tree

(** Layers above the leaves: the latency of one checking round. *)
val depth : tree -> int

(** Maximum fan-in over internal nodes: the busiest tool process's load. *)
val max_fan_in : tree -> int

type divergence = {
  position : int;  (** Stream position of the first disagreement. *)
  layer : int;
  node : int;  (** Overlay node that detected the conflict. *)
  groups : (string * int list) list;
      (** Conflicting signatures with the ranks holding them; early-ended
          streams appear as ["<no event>"]. *)
}

type report = {
  verdict : [ `Match of int | `Divergence of divergence ];
  rounds : int;
  messages : int;  (** Total overlay messages exchanged. *)
  tree_depth : int;
  tree_max_fan_in : int;
}

(** One checking round: [round.(r)] is rank [r]'s event at the round's
    stream position, [None] once that rank's stream has ended. *)
type round = event option array

(** Whether every rank holds an event in [round] and all of them carry
    the same [(kind, op, root)] signature: the one agreement test of
    both checkers. *)
val round_agrees : round -> bool

(** [report_of_rounds tree ~agreed diverging]: the report of a run whose
    first [agreed] rounds agree on every rank.  [diverging] is [None]
    when there were no further rounds, otherwise [Some round] with the
    first disagreeing round (an ended stream contributes
    ["<no event>"]); that round is reduced over the tree to localize
    the conflict.  Each agreeing round costs one message per node below
    the root.  The only constructor of {!report}, so both checkers
    agree byte for byte.
    @raise Invalid_argument if the round agrees. *)
val report_of_rounds : tree -> agreed:int -> round option -> report

(** Check that all per-rank streams carry the same ordered signature
    sequence; the first divergence is localized in the overlay.  Rounds
    are compared with {!round_agrees}; the first disagreeing one goes to
    {!report_of_rounds}. *)
val check : ?fanout:int -> event list array -> report

(** Post-mortem check of everything a simulated MPI engine recorded. *)
val check_engine : ?fanout:int -> Mpisim.Engine.t -> report

val report_to_string : report -> string

val is_match : report -> bool

(** MUST-style collective matching over a tree-based overlay network
    (Hilbrich et al., EuroMPI 2013 — reference [2] of the paper); a
    centralized Marmot-like checker is the degenerate overlay with fan-out
    equal to the process count.  Consumes the per-rank traces recorded by
    {!Mpisim.Engine}. *)

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

(** Overlay messages of a round on which every rank agrees (one per node
    below the root); both checkers charge it for each such round. *)
val full_round_messages : tree -> int

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

(** One overlay reduction over per-leaf contributions
    [(node index, (signature description, ranks))] at stream position
    [pos]: ascend layer by layer, merging equal signatures, and either
    return the agreed signature or localize the first conflicting node.
    Also returns the overlay messages the round used.  Shared core of
    the post-hoc checker and the streaming checker's ({!Stream})
    divergence localization, which keeps their reports identical. *)
val reduce_round :
  tree ->
  pos:int ->
  (int * (string * int list)) list ->
  (string, divergence) result * int

(** Check that all per-rank streams carry the same ordered signature
    sequence; the first divergence is localized in the overlay.  Agreeing
    rounds are compared structurally; only the first disagreeing one is
    rendered and run through {!reduce_round}. *)
val check : ?fanout:int -> event list array -> report

(** Post-mortem check of everything a simulated MPI engine recorded. *)
val check_engine : ?fanout:int -> Mpisim.Engine.t -> report

val pp_report : report Fmt.t

val report_to_string : report -> string

val is_match : report -> bool

(** The collective matching engine of the simulated MPI runtime: one
    instance models MPI_COMM_WORLD.  Each rank owns a single collective
    slot (MPI forbids concurrent collectives on one communicator from one
    process); when every rank has arrived the engine validates the
    signatures (MUST-style matching) — and, for [Cc_check], the colour
    agreement — then computes per-rank results. *)

type rank_call = {
  rank : int;
  cookie : int;  (** Caller id returned on completion (scheduler task). *)
  call : Coll.call;
}

type outcome =
  | Completed of { calls : rank_call list; results : int array }
  | Mismatch of rank_call list
      (** Different signatures met: the collective-mismatch error. *)
  | Cc_divergence of rank_call list
      (** The CC agreement found diverging colours: clean abort. *)

(** Outcome of one nonblocking round (see {!nb_advance}). *)
type nb_outcome =
  | Nb_completed of { round : int; calls : rank_call list; results : int array }
  | Nb_mismatch of { round : int; calls : rank_call list }

type arrive_result =
  | Waiting
  | Busy_rank of { pending_site : string; pending_kind : Coll.kind }
      (** The rank already has a collective in flight: concurrent
          collective calls from non-synchronized threads. *)

(** One recorded arrival, for post-mortem trace checking. *)
type trace_event = {
  signature : Coll.kind * Op.t option * int option;
  payload : int;
  event_site : string;
}

type t

(** @raise Invalid_argument if [nranks <= 0]. *)
val create : nranks:int -> t

val nranks : t -> int

(** Subscribe a streaming consumer: [f ~rank event] runs synchronously
    on every recorded (non-CC) arrival, in each rank's program order;
    a MUST-style online checker checks its rounds here, inline.  One
    subscriber at a time; subscribing replaces the previous hook. *)
val subscribe : t -> (rank:int -> trace_event -> unit) -> unit

(** [set_retention t false] stops accumulating the per-rank traces (and
    drops what was recorded so far): a subscribed streaming checker,
    which holds only the events of rounds still waiting for a rank,
    then replaces the full trace.  Default [true]. *)
val set_retention : t -> bool -> unit

(** Pending arrivals, for deadlock diagnostics. *)
val pending : t -> rank_call list

(** @raise Invalid_argument on an out-of-range rank. *)
val arrive : t -> rank:int -> cookie:int -> Coll.call -> arrive_result

(** If every rank has arrived, match and complete the collective; slots
    are cleared whatever the verdict. *)
val try_complete : t -> outcome option

(** Register a split-phase collective start ([MPI_Ibarrier] /
    [MPI_Iallreduce]); returns the global round index the post joined
    (the rank's [k]-th post belongs to round [k]).  Nonblocking rounds
    match independently of the blocking slots: an [MPI_Ibarrier] never
    meets an [MPI_Barrier].
    @raise Invalid_argument on an out-of-range rank. *)
val nb_post : t -> rank:int -> cookie:int -> Coll.call -> int

(** Match and complete every round all ranks have posted, strictly in
    round order; outcomes oldest first. *)
val nb_advance : t -> nb_outcome list

(** Round [k] is completable by a waiter iff [k < nb_completed_rounds t]. *)
val nb_completed_rounds : t -> int

(** Rank [rank]'s result of completed round [round]. *)
val nb_result : t -> round:int -> rank:int -> int

(** Split-phase posts not yet part of a completed round, by rank then
    posting order (deadlock diagnostics, state fingerprints). *)
val nb_pending : t -> rank_call list

(** Arrival stream of one rank in program order (CC checks excluded). *)
val rank_trace : t -> int -> trace_event list

(** All per-rank traces, indexed by rank. *)
val all_traces : t -> trace_event list array

val completed_count : t -> int

val cc_check_count : t -> int

(** Human-readable description of a mismatch or CC divergence. *)
val describe_divergence : rank_call list -> string

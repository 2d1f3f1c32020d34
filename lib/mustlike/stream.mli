(** Streaming MUST-style overlay checker: the online form of {!Overlay}.

    Ranks push collective events as they happen into bounded per-rank
    {!Ring} mailboxes; a coordinator domain drains them in batches and
    compares interned signature ids (integers, not strings).
    Backpressure: a full mailbox blocks its producer, so in-flight memory
    is O(window × nranks) regardless of trace length.  The report comes
    from {!Overlay.report_of_rounds}, the builder {!Overlay.check} uses,
    so it is byte-identical to the post-hoc one on the same traces with
    the same fanout. *)

type stats = {
  events : int;  (** Events consumed before the verdict was reached. *)
  drained : int;  (** Events discarded after an early divergence verdict. *)
  batches : int;  (** Reduction batches executed. *)
  max_batch_fill : int;  (** Largest number of rounds reduced in one batch. *)
  max_in_flight : int;
      (** Largest buffered event count (mailboxes + batch carries)
          observed at a batch boundary; hard bound
          [(window + batch) * nranks]. *)
  distinct_signatures : int;  (** Intern-table size at the end. *)
}

type t

(** [create ~fanout ~nranks ()] spawns the coordinator domain and
    returns a live checker.

    @param fanout overlay tree fanout (>= 2).
    @param window per-rank mailbox capacity — the divergence window and
      backpressure bound (default 1024; >= 2).
    @param batch maximum rounds reduced per coordinator wake-up
      (default 256; >= 1).
    @raise Invalid_argument on out-of-range parameters. *)
val create : fanout:int -> ?window:int -> ?batch:int -> nranks:int -> unit -> t

(** Push rank [rank]'s next collective event.  Interns the signature
    (per-rank cache; the shared table's lock is only taken on new
    signatures) and appends it to a producer-local buffer that is
    flushed into the rank's bounded mailbox every [window/4] events (and
    on {!close_rank} / {!close}), so the mailbox lock is amortized over
    the flush chunk.  A flush blocks while the mailbox is full
    (backpressure).  Each rank's [push]/[close_rank] calls must come
    from a single producer thread; one thread may produce for several
    ranks if it keeps them in lockstep (within a flush chunk of each
    other), as the simulator does.
    @raise Invalid_argument on a bad rank or if the rank was closed. *)
val push : t -> rank:int -> Overlay.event -> unit

(** Mark rank [rank]'s stream as ended; its remaining rounds contribute
    ["<no event>"], exactly as a short trace does post-hoc. *)
val close_rank : t -> rank:int -> unit

(** Close every rank's stream, flushing any producer-buffered events
    first.  Call only after the producer threads have quiesced. *)
val close : t -> unit

(** Close all streams (idempotent), wait for the coordinator to finish,
    and return its report and streaming statistics.  Cached: subsequent
    calls return the same result. *)
val result : t -> Overlay.report * stats

(** Subscribe the checker to a simulated MPI engine: every recorded
    collective arrival is pushed online and per-rank trace retention is
    turned off — the checker's bounded window replaces the full trace.
    The caller still must {!close} (or {!result}) after the run.
    @raise Invalid_argument on a rank-count mismatch. *)
val attach_engine : t -> Mpisim.Engine.t -> unit

(** Streaming MUST-style overlay checker: the online form of {!Overlay}.

    Ranks push collective events as they happen, typically from the
    engine's arrival hook ({!attach_engine}).  Each rank has a FIFO of
    pending events; every push or closure decides, synchronously, each
    round that has become decidable: every rank holds an event or is
    closed (a closed rank with no event contributes ["<no event>"]).
    Rounds are compared with {!Overlay.round_agrees} and the report comes
    from {!Overlay.report_of_rounds}, as in {!Overlay.check}, so it is
    byte-identical to the post-hoc one on the same traces with the same
    fanout.  Only events of rounds still waiting for a rank are held. *)

type stats = {
  events : int;  (** Events pushed before the verdict was reached. *)
  drained : int;  (** Events pushed after an early divergence verdict. *)
  max_in_flight : int;
      (** Largest number of events queued at once over all ranks,
          counted right after each push: deterministic for a given
          push order. *)
}

type t

(** [create ~fanout ~nranks ()] returns a checker with every rank open.
    @param fanout overlay tree fanout (>= 2).
    @raise Invalid_argument if [fanout < 2] or [nranks <= 0]. *)
val create : fanout:int -> nranks:int -> unit -> t

(** Push rank [rank]'s next collective event and decide every round that
    is now decidable.  After a divergence the event is only counted as
    drained.
    @raise Invalid_argument on a bad rank or if the rank was closed. *)
val push : t -> rank:int -> Overlay.event -> unit

(** Mark rank [rank]'s stream as ended (idempotent); its remaining
    rounds contribute ["<no event>"], exactly as a short trace does
    post-hoc. *)
val close_rank : t -> rank:int -> unit

(** Close every rank's stream. *)
val close : t -> unit

(** Close all streams and return the report and streaming statistics.
    Later calls return the same result. *)
val result : t -> Overlay.report * stats

(** Subscribe the checker to a simulated MPI engine: every recorded
    collective arrival is checked inline in the arrival hook, and
    per-rank trace retention is turned off, so the engine keeps no trace.
    The caller still must {!close} (or {!result}) after the run.
    @raise Invalid_argument on a rank-count mismatch. *)
val attach_engine : t -> Mpisim.Engine.t -> unit

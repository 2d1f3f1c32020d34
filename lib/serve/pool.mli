(** Bounded worker pool of OCaml 5 domains, in the direct style of eio's
    concurrency primitives: a write-once {!Promise} for results, a
    bounded blocking {!Stream} as the work queue, and a fixed set of
    worker domains draining it.  The daemon submits one job per request;
    [jobs:1] still runs requests off the calling thread but one at a
    time, so responses are deterministic per request whatever the pool
    width. *)

module Promise : sig
  type 'a t

  val create : unit -> 'a t

  (** Resolve with a value; subsequent resolutions are ignored. *)
  val resolve : 'a t -> 'a -> unit

  (** Resolve with an exception, re-raised by {!await}. *)
  val reject : 'a t -> exn -> unit

  (** Block until resolved; returns the value or re-raises. *)
  val await : 'a t -> 'a

  val is_resolved : 'a t -> bool
end

module Stream : sig
  type 'a t

  (** [create capacity]: a bounded FIFO; {!push} blocks while full. *)
  val create : int -> 'a t

  (** @raise Invalid_argument if the stream is closed. *)
  val push : 'a t -> 'a -> unit

  (** Blocking pop; [None] once the stream is closed and drained. *)
  val pop : 'a t -> 'a option

  (** Close: pushes fail, pops drain the backlog then return [None]. *)
  val close : 'a t -> unit

  val length : 'a t -> int
end

(** Sharded batch queue with work stealing: each shard holds a fixed
    array of batches filled up front; workers drain their own shards with
    {!take} and fall back to {!steal} (a round-robin scan from a
    preferred shard) so a slow shard never idles the rest of the pool.
    Claiming is a single [Atomic.fetch_and_add] per batch — every batch
    is handed out exactly once, whatever the worker interleaving. *)
module Workq : sig
  type 'a t

  (** [create batches]: [batches.(s)] are shard [s]'s batches, in the
      order they should be claimed. *)
  val create : 'a array array array -> 'a t

  val shards : 'a t -> int

  (** Claim the next batch of [shard]; [None] once the shard is drained. *)
  val take : 'a t -> shard:int -> 'a array option

  (** Claim a batch from the first non-drained shard at or after
      [preferred] (wrapping); returns the shard it came from. *)
  val steal : 'a t -> preferred:int -> (int * 'a array) option
end

type t

(** [create ~jobs ()] spawns [jobs] worker domains ([jobs >= 1]). *)
val create : ?queue_capacity:int -> jobs:int -> unit -> t

val jobs : t -> int

(** Enqueue a job; the promise resolves with its result (or exception)
    once a worker has run it. *)
val submit : t -> (unit -> 'a) -> 'a Promise.t

(** Run [f] on the pool and block for its result. *)
val run : t -> (unit -> 'a) -> 'a

(** Drain the queue, stop the workers and join their domains.
    Idempotent. *)
val shutdown : t -> unit

(** The daemon's request queue: a fixed set of worker domains draining a
    bounded blocking FIFO of jobs.  [Daemon.serve] submits one job per
    request and writes the response from inside the job, so nothing
    waits on a job's result.  A job that raises is dropped and its
    worker carries on with the next one.  (Batch fan-outs with a known
    item count use {!Par} instead.) *)

type t

(** [create ~jobs ()] spawns [jobs] worker domains ([jobs >= 1]). *)
val create : jobs:int -> unit -> t

(** Enqueue a job; blocks while the queue is full.
    @raise Invalid_argument after {!shutdown}. *)
val submit : t -> (unit -> unit) -> unit

(** Stop accepting jobs, run every job already accepted, then join the
    worker domains.  Idempotent. *)
val shutdown : t -> unit

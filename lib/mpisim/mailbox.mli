(** Point-to-point messaging of the simulated MPI library: eager
    (never-blocking) sends, receives matched by (source, tag) with FIFO
    order per channel.  Outside the collective-validation scope of the
    analyses; exists so benchmarks can mirror real halo exchanges and so
    receive-blocked ranks appear in deadlock diagnostics. *)

(** Wildcard source rank (MPI_ANY_SOURCE). *)
val any_source : int

type message = { src : int; tag : int; value : int; send_site : string }

type t

(** @raise Invalid_argument if [nranks <= 0]. *)
val create : nranks:int -> t

(** Deposit a message; never blocks.
    @raise Invalid_argument on out-of-range ranks. *)
val send : t -> src:int -> dst:int -> tag:int -> value:int -> site:string -> unit

(** Try to receive: [Some m] consumes the oldest matching message, [None]
    means the caller must block.
    @raise Invalid_argument on out-of-range ranks. *)
val recv : t -> dst:int -> src:int -> tag:int -> message option

(** Undelivered messages in [rank]'s inbox. *)
val pending : t -> int -> int

(** Undelivered messages of [rank]'s inbox in arrival (FIFO) order, for
    state fingerprints and diagnostics.
    @raise Invalid_argument on an out-of-range rank. *)
val inbox : t -> int -> message list

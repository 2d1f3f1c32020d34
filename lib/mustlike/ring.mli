(** Int-specialized bounded blocking FIFO: a full ring blocks its
    producers (backpressure), elements live unboxed in a flat array and
    bulk transfers are [Array.blit] copies under a single lock.  Built
    for high-rate mailboxes: the per-rank interned-signature queues of
    {!Stream}. *)

type t

(** [create capacity]: a bounded int FIFO; pushes block while full. *)
val create : int -> t

(** Blocking push of one element.
    @raise Invalid_argument if the ring is closed. *)
val push : t -> int -> unit

(** [push_array t src pos len]: blocking bulk push of
    [src.(pos .. pos+len-1)] in order, copying in capacity-sized
    chunks under one lock acquisition each.
    @raise Invalid_argument if the ring is closed. *)
val push_array : t -> int array -> int -> int -> unit

(** Blocking pop; [None] once the ring is closed and drained. *)
val pop : t -> int option

(** [pop_into t dst pos max]: non-blocking bulk pop of up to [max]
    elements into [dst.(pos..)], FIFO, under one lock; returns the
    count copied. *)
val pop_into : t -> int array -> int -> int -> int

(** Non-blocking discard of everything queued; returns the count. *)
val drain : t -> int

val is_closed : t -> bool

(** Close: pushes fail, pops drain the backlog then return [None]. *)
val close : t -> unit

val length : t -> int

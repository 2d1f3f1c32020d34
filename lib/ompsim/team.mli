(** OpenMP thread teams: created at each [parallel] construct, carrying
    the team barrier, the [single] arbitration table and join
    bookkeeping. *)

type t = {
  rank : int;  (** Owning MPI process. *)
  size : int;
  parent : t option;
  depth : int;  (** 1 for an outermost parallel region. *)
  barrier : Barrier.t;
  singles : (int * int, unit) Hashtbl.t;
  mutable singles_digest : int;
      (** Sum of [Hashtbl.hash key lor 1] over the keys of [singles]
          (wrapping): order-insensitive, updated by {!claim_single}. *)
  mutable finished : int;
  forker : int;  (** Cookie of the task blocked on the join. *)
}

val create : rank:int -> size:int -> parent:t option -> forker:int -> t

(** [true] iff the caller is the first of the team to encounter this
    dynamic instance of the [single] construct. *)
val claim_single : t -> construct:int -> instance:int -> bool

(** Records one member's completion; [true] when the team is done and the
    forker can resume. *)
val member_finished : t -> bool

(** Team size as seen by a task: 1 outside any parallel region. *)
val size_of : t option -> int

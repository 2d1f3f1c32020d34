(** Dynamic data-race oracle: a FastTrack-style vector-clock
    happens-before checker over the simulator's frame slots.  The
    simulator feeds it the synchronisation it executes (fork/join at
    [parallel], OpenMP barriers, critical sections) and every slot access
    the lowering recorded ({!Compile.access}); unordered conflicting
    accesses to one location are reported as races.  Used to validate the
    static {!Parcoach.Races} pass: every dynamically observed race must
    be covered by a static warning. *)

type t

(** One observed race: both sites (source positions, ordered by string),
    access kinds, and the rank whose team raced. *)
type race = {
  rc_var : string;
  rc_rank : int;
  rc_site1 : string;
  rc_write1 : bool;
  rc_site2 : string;
  rc_write2 : bool;
}

val create : unit -> t

(** [fork r ~parent ~child]: the child task starts with (a successor of)
    the forker's clock. *)
val fork : t -> parent:int -> child:int -> unit

(** [join r ~parent ~child]: the forker absorbs a finishing member's
    clock. *)
val join : t -> parent:int -> child:int -> unit

(** All listed tasks meet at a barrier release. *)
val barrier : t -> int list -> unit

(** Entering / leaving the named critical section of [rank]. *)
val acquire : t -> task:int -> rank:int -> name:string -> unit

val release : t -> task:int -> rank:int -> name:string -> unit

(** {2 Clock access for the DPOR recorder ({!Dpor})} *)

(** Advance a task's own clock component (one scheduler step). *)
val tick : t -> int -> unit

(** Copy of the task's current vector clock. *)
val clock : t -> int -> int array

(** The task's own clock component. *)
val clock_value : t -> int -> int

(** Draw a fresh frame identity from the same counter as the lazy
    per-access assignment, for creation-time assignment (deterministic
    along a schedule prefix, so footprints of runs sharing that prefix
    are comparable). *)
val fresh_fid : t -> int

(** Record one slot access: [frame] is the frame the statement executes
    against; the access's hops/slot locate the storage. *)
val access :
  t -> task:int -> rank:int -> site:string -> frame:Compile.frame ->
  Compile.access -> unit

(** Races observed so far, in observation order, deduplicated by
    (variable, site pair). *)
val races : t -> race list

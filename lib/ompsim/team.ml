(** OpenMP thread teams.

    A team is created at each [parallel] construct (the explicit fork/join
    model of the paper).  It tracks: the barrier object shared by its
    members, the arbitration table for [single] constructs (first thread to
    encounter a given dynamic instance executes it), and join bookkeeping
    for the forking task. *)

type t = {
  rank : int;  (** Owning MPI process. *)
  size : int;
  parent : t option;  (** Enclosing team, for nested parallelism. *)
  depth : int;  (** Nesting depth: 1 for an outermost parallel region. *)
  barrier : Barrier.t;
  singles : (int * int, unit) Hashtbl.t;
      (** Keys [(construct_uid, instance)] already claimed by some thread. *)
  mutable singles_digest : int;
      (** Sum of [Hashtbl.hash key lor 1] over the claimed keys: an
          order-insensitive digest of [singles], kept as claims are made
          so a state fingerprint reads it instead of folding the table. *)
  mutable finished : int;  (** Members that ran to completion. *)
  forker : int;  (** Cookie of the task blocked on the join. *)
}

let create ~rank ~size ~parent ~forker =
  {
    rank;
    size;
    parent;
    depth = (match parent with None -> 1 | Some p -> p.depth + 1);
    barrier = Barrier.create ~size;
    singles = Hashtbl.create 8;
    singles_digest = 0;
    finished = 0;
    forker;
  }

(** [claim_single team ~construct ~instance] returns [true] iff the calling
    thread is the first of the team to encounter this dynamic instance of
    the [single] construct, and therefore executes its body. *)
let claim_single team ~construct ~instance =
  let key = (construct, instance) in
  if Hashtbl.mem team.singles key then false
  else begin
    Hashtbl.replace team.singles key ();
    team.singles_digest <- team.singles_digest + (Hashtbl.hash key lor 1);
    true
  end

(** Records one member's completion; [true] when the whole team is done and
    the forker can be resumed. *)
let member_finished team =
  team.finished <- team.finished + 1;
  team.finished = team.size

(** Team size as seen by a task: 1 outside any parallel region. *)
let size_of = function None -> 1 | Some team -> team.size

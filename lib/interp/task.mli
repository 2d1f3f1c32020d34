(** Tasks: one per MPI rank, plus one per thread forked at each
    [parallel] construct.  A task carries a continuation stack over the
    lowered program ({!Compile}); the scheduler ({!Sim.run_compiled})
    advances one task by one small step at a time. *)

type kont =
  | Kseq of { code : Compile.cblock; mutable pc : int; frame : Compile.frame }
  | Kwhile of {
      cond : Compile.exprc;
      uid : int;
      scope : Compile.scope;
      cacc : Compile.access array;
      wsite : string;
      body : Compile.cblock;
      frame : Compile.frame;
    }
  | Kfor of {
      slot : int;
      uid : int;
      mutable current : int;
      stop : int;
      scope : Compile.scope;
      body : Compile.cblock;
      frame : Compile.frame;
    }
  | Kcall_return
  | Kenter_single
  | Kexit_single of { team : Ompsim.Team.t option; nowait : bool }
  | Kexit_ws of { team : Ompsim.Team.t option; nowait : bool }
  | Kcritical_end of { name : string; uid : int }
  | Kreduce_combine of {
      op : Minilang.Ast.reduce_op;
      uid : int;
      shared : Compile.loc;
      private_ : Compile.loc;
    }

type block_reason =
  | At_collective of { site : string; coll : string }
  | At_barrier of { site : string }
  | At_join
  | At_critical of { name : string; site : string }
  | At_recv of { src : int; tag : int; site : string }
  | At_wait of { rid : int; site : string }
      (** [MPI_Wait] on a request not yet completable. *)

type status = Runnable | Blocked of block_reason | Finished

type t = {
  id : int;  (** Cookie used by the engine, barriers and locks. *)
  rank : int;
  tid : int;
  team : Ompsim.Team.t option;
  mutable konts : kont list;
  mutable status : status;
  mutable single_depth : int;
  mutable wait_cell : Compile.loc option;
  mutable encounters : (int, int) Hashtbl.t;
      (** Shared empty sentinel until the task's first [single]. *)
  mutable encounters_digest : int;  (** See {!encounters_hash}. *)
}

val make :
  id:int ->
  rank:int ->
  tid:int ->
  team:Ompsim.Team.t option ->
  konts:kont list ->
  t

(** Next dynamic instance index of construct [uid] for this task. *)
val next_instance : t -> int -> int

val team_size : t -> int

val is_runnable : t -> bool

(** Hash of the scheduling status (fingerprint ingredient). *)
val status_hash : status -> int

(** Order-insensitive hash of the per-construct instance counters
    (fingerprint ingredient): the wrapping sum over entries [(uid, n)] of
    [Hashtbl.hash (uid, n) lor 1], so schedules that filled the table in
    different orders but reached the same counts hash alike.  Kept as a
    running sum by {!next_instance}; reading it costs nothing. *)
val encounters_hash : t -> int

val describe : t -> string

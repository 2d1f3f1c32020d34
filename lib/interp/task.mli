(** Tasks: one per MPI rank, plus one per thread forked at each
    [parallel] construct.  A task carries a continuation stack; the
    scheduler advances one task by one small step at a time.

    [('k, 'c) t] is polymorphic in the continuation type ['k] and the
    collective result-cell type ['c]: the reference tree-walker uses
    [(kont, Env.cell) t]; the compiled core (see {!Compile} and
    {!Sim.run_compiled}) instantiates its own continuation and slot
    location types.  The scheduling state (status, block reasons,
    encounter counters) stays monomorphic so fingerprint ingredients are
    shared verbatim by both interpreters. *)

type kont =
  | Kseq of Minilang.Ast.block * Env.t
  | Kwhile of Minilang.Ast.expr * Minilang.Ast.block * Env.t
  | Kfor of {
      var : string;
      mutable current : int;
      stop : int;
      body : Minilang.Ast.block;
      env : Env.t;
    }
  | Kcall_return
  | Kenter_single
  | Kexit_single of { team : Ompsim.Team.t option; nowait : bool }
  | Kexit_ws of { team : Ompsim.Team.t option; nowait : bool }
  | Kcritical_end of string
  | Kreduce_combine of {
      op : Minilang.Ast.reduce_op;
      shared : Env.cell;
      private_ : Env.cell;
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

type ('k, 'c) t = {
  id : int;  (** Cookie used by the engine, barriers and locks. *)
  rank : int;
  tid : int;
  team : Ompsim.Team.t option;
  mutable konts : 'k list;
  mutable status : status;
  mutable single_depth : int;
  mutable wait_cell : 'c option;
  mutable encounters : (int, int) Hashtbl.t;
      (** Shared empty sentinel until the task's first [single]. *)
}

val make :
  id:int ->
  rank:int ->
  tid:int ->
  team:Ompsim.Team.t option ->
  konts:'k list ->
  ('k, 'c) t

(** Next dynamic instance index of construct [uid] for this task. *)
val next_instance : ('k, 'c) t -> int -> int

val team_size : ('k, 'c) t -> int

val is_runnable : ('k, 'c) t -> bool

(** Hash of the scheduling status (fingerprint ingredient). *)
val status_hash : status -> int

(** Order-insensitive hash of the per-construct instance counters
    (fingerprint ingredient): commutative over entries, so schedules that
    filled the table in different orders but reached the same counts hash
    alike. *)
val encounters_hash : ('k, 'c) t -> int

val describe_block_reason : block_reason -> string

val describe : ('k, 'c) t -> string

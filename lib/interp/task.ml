(** Tasks: one per MPI rank initially, plus one per thread forked at each
    [parallel] construct.  A task carries a continuation stack over the
    lowered program ({!Compile}); the scheduler advances one task by one
    small step at a time, which makes thread interleavings (and the bugs
    that depend on them) schedulable and reproducible. *)

(** Continuations over compiled blocks: a [Kseq] is a program counter
    into a statement array (advancing allocates nothing); loops carry
    their compiled bodies and the frame they run against.  The [uid] of
    a construct's statement and the [scope] are the program point and
    the visible variables that state fingerprints hash. *)
type kont =
  | Kseq of { code : Compile.cblock; mutable pc : int; frame : Compile.frame }
  | Kwhile of {
      cond : Compile.exprc;
      uid : int;  (** The while statement's. *)
      scope : Compile.scope;
      cacc : Compile.access array;
      wsite : string;  (** The while statement's source site. *)
      body : Compile.cblock;
      frame : Compile.frame;
    }
  | Kfor of {
      slot : int;
      uid : int;  (** The loop statement's. *)
      mutable current : int;
      stop : int;
      scope : Compile.scope;
      body : Compile.cblock;
      frame : Compile.frame;
    }  (** Counted loop; also a thread's chunk of an [omp for]. *)
  | Kcall_return  (** Function frame marker popped by [return]. *)
  | Kenter_single
      (** Increment the single-nesting depth (executor entering a
          [single]/[master] body or a [section]). *)
  | Kexit_single of { team : Ompsim.Team.t option; nowait : bool }
      (** Decrement the depth; with a team and not [nowait], take part in
          the construct's implicit barrier. *)
  | Kexit_ws of { team : Ompsim.Team.t option; nowait : bool }
      (** End of a worksharing construct ([for]/[sections]): implicit
          barrier unless [nowait]. *)
  | Kcritical_end of { name : string; uid : int }
      (** Release the named critical lock. *)
  | Kreduce_combine of {
      op : Minilang.Ast.reduce_op;
      uid : int;
      shared : Compile.loc;
      private_ : Compile.loc;
    }
      (** End of a thread's chunk of a [reduction] worksharing loop:
          fold the private accumulator into the shared variable. *)

type block_reason =
  | At_collective of { site : string; coll : string }
  | At_barrier of { site : string }
  | At_join  (** Forker waiting for its team to finish. *)
  | At_critical of { name : string; site : string }
  | At_recv of { src : int; tag : int; site : string }
      (** Blocking receive with no matching message yet. *)
  | At_wait of { rid : int; site : string }
      (** [MPI_Wait] on a request not yet completable (its nonblocking
          round is missing posts, or its [MPI_Irecv] has no matching
          message).  Carries only ints and strings so {!status_hash}'s
          polymorphic hash stays exact. *)

type status = Runnable | Blocked of block_reason | Finished

type t = {
  id : int;  (** Cookie used by the engine, barriers and locks. *)
  rank : int;
  tid : int;  (** Thread number in the innermost team (0 if sequential). *)
  team : Ompsim.Team.t option;
  mutable konts : kont list;
  mutable status : status;
  mutable single_depth : int;
      (** Number of enclosing single-threaded bodies this task is currently
          executing as the designated thread. *)
  mutable wait_cell : Compile.loc option;
      (** Location to store a collective or receive result into upon
          release. *)
  mutable encounters : (int, int) Hashtbl.t;
      (** Per-construct dynamic instance counters (for [single]
          arbitration); {!no_encounters} until the first [single]. *)
}

(* Shared by every task that has not yet met a [single], so a fresh task
   allocates no table.  Nothing may write to it, not even a fold (which
   marks the table as being traversed): {!next_instance} replaces it
   before the first insertion and {!encounters_hash} does not fold it. *)
let no_encounters : (int, int) Hashtbl.t = Hashtbl.create 1

let make ~id ~rank ~tid ~team ~konts =
  {
    id;
    rank;
    tid;
    team;
    konts;
    status = Runnable;
    single_depth = 0;
    wait_cell = None;
    encounters = no_encounters;
  }

(** Next dynamic instance index of construct [uid] for this task. *)
let next_instance t uid =
  if t.encounters == no_encounters then t.encounters <- Hashtbl.create 8;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.encounters uid) in
  Hashtbl.replace t.encounters uid (n + 1);
  n

let team_size t = Ompsim.Team.size_of t.team

let is_runnable t =
  match t.status with Runnable -> true | Blocked _ | Finished -> false

(* ------------------------------------------------------------------ *)
(* Fingerprint ingredients                                             *)
(* ------------------------------------------------------------------ *)

(** Hash of the scheduling status.  Block reasons carry only short
    strings and ints, so the polymorphic hash covers them fully; the site
    string pins the blocked program point. *)
let status_hash = function
  | Runnable -> 0x2545f491
  | Finished -> 0x1b873593
  | Blocked r -> 0x7feb352d lxor Hashtbl.hash r

(** Order-insensitive hash of the per-construct instance counters: the
    table's iteration order depends on insertion history (which varies
    between schedules reaching the same state), so entries combine by
    commutative sum. *)
let encounters_hash t =
  (* Skip the sentinel: even a fold over an empty table writes to it. *)
  if t.encounters == no_encounters then 0
  else
    Hashtbl.fold
      (fun uid n acc -> acc + (Hashtbl.hash (uid, n) lor 1))
      t.encounters 0

let describe_block_reason = function
  | At_collective { site; coll } -> Printf.sprintf "in %s at %s" coll site
  | At_barrier { site } -> Printf.sprintf "at barrier (%s)" site
  | At_join -> "joining its parallel region"
  | At_critical { name; site } ->
      Printf.sprintf "waiting for critical(%s) at %s" name site
  | At_recv { src; tag; site } ->
      Printf.sprintf "in MPI_Recv(src=%s, tag=%d) at %s"
        (if src < 0 then "ANY" else string_of_int src)
        tag site
  | At_wait { rid; site } ->
      Printf.sprintf "in MPI_Wait(request #%d) at %s" rid site

let describe t =
  Printf.sprintf "rank %d thread %d%s" t.rank t.tid
    (match t.status with
    | Blocked r -> " " ^ describe_block_reason r
    | Runnable -> " (runnable)"
    | Finished -> " (finished)")

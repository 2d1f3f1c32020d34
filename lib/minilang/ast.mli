(** Abstract syntax of the hybrid MPI+OpenMP mini-language: a structured
    imperative language with MPI collectives and point-to-point calls as
    statements and block-structured OpenMP constructs (the explicit
    fork/join model with perfectly nested regions the paper assumes).
    [Check] statements are emitted by the instrumentation pass, not parsed
    from user source (though the printer/parser round-trip supports
    them). *)

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr =
  | Int of int
  | Bool of bool
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Rank  (** MPI rank of the calling process in COMM_WORLD. *)
  | Size  (** Number of MPI processes in COMM_WORLD. *)
  | Tid  (** OpenMP thread number in the innermost team. *)
  | Nthreads  (** OpenMP team size of the innermost team. *)

(** Reduction operators for MPI reductions and OpenMP reduction clauses. *)
type reduce_op = Rsum | Rprod | Rmax | Rmin | Rland | Rlor

type collective =
  | Barrier
  | Bcast of { root : expr; value : expr }
  | Reduce of { op : reduce_op; root : expr; value : expr }
  | Allreduce of { op : reduce_op; value : expr }
  | Gather of { root : expr; value : expr }
  | Scatter of { root : expr; value : expr }
  | Allgather of { value : expr }
  | Alltoall of { value : expr }
  | Scan of { op : reduce_op; value : expr }
  | Reduce_scatter of { op : reduce_op; value : expr }

(** Nonblocking (split-phase) MPI operations: started by [Istart] (which
    binds a request value), completed by [Wait]/[Test].  Buffer-receiving
    operations ([Irecv], [Iallreduce]) name the destination variable,
    which must not be read between start and completion. *)
type request_op =
  | Ibarrier
  | Iallreduce of { op : reduce_op; target : string; value : expr }
  | Isend of { value : expr; dest : expr; tag : expr }
  | Irecv of { target : string; src : expr; tag : expr }
      (** [src = -1] is MPI_ANY_SOURCE (wildcard). *)

(** Runtime checks inserted by the instrumentation pass: the [CC]
    agreement (before collectives and returns) and the concurrency
    counters of the sets [Sipw]/[Scc]. *)
type check =
  | Cc_next_collective of { color : int; coll_name : string }
  | Cc_return
  | Assert_monothread of { region : int }
  | Count_enter of { region : int }
  | Count_exit of { region : int }

type stmt = { sdesc : sdesc; sloc : Loc.t }

and sdesc =
  | Decl of string * expr  (** [var x = e;] — block-scoped declaration. *)
  | Assign of string * expr
  | If of expr * block * block
  | While of expr * block
  | For of string * expr * expr * block
      (** Sequential loop, variable over [lo..hi-1]. *)
  | Return
  | Call of string * expr list
  | Compute of expr  (** Simulated computation of the given cost. *)
  | Print of expr  (** Emits a trace event. *)
  | Coll of string option * collective  (** Optional result target. *)
  | Send of { value : expr; dest : expr; tag : expr }
      (** Eager point-to-point send (outside the analyses' scope). *)
  | Recv of { target : string; src : expr; tag : expr }
      (** Blocking receive; [src = -1] is MPI_ANY_SOURCE. *)
  | Istart of { req : string; rop : request_op }
      (** [r = MPI_Ibarrier();] etc. — starts a split-phase operation and
          declares the (opaque, block-scoped) request variable [req]. *)
  | Wait of { req : string }  (** [MPI_Wait(r);] — block until complete. *)
  | Test of { target : string; req : string }
      (** [t = MPI_Test(r);] — poll; writes 1 (completing) or 0. *)
  | Omp_parallel of { num_threads : expr option; body : block }
  | Omp_single of { nowait : bool; body : block }
  | Omp_master of block
  | Omp_critical of string option * block
  | Omp_barrier
  | Omp_for of {
      var : string;
      lo : expr;
      hi : expr;
      nowait : bool;
      reduction : (reduce_op * string) option;
      body : block;
    }
  | Omp_sections of { nowait : bool; sections : block list }
  | Check of check

and block = stmt list

type func = { fname : string; params : string list; body : block; floc : Loc.t }

type program = { funcs : func list }

val mk : ?loc:Loc.t -> sdesc -> stmt

(** Tables keyed by a statement's physical identity ([equal] is [==]).
    Hashing is O(1): it mixes the statement's line, column and
    constructor tag, and reads no string and no sub-block.  Statements
    that share a location and a constructor share a bucket. *)
module Stmt_tbl : Hashtbl.S with type key = stmt

val find_func : program -> string -> func option

(** @raise Not_found if there is no [main]. *)
val main_func : program -> func

val reduce_op_name : reduce_op -> string

val reduce_op_of_name : string -> reduce_op option

(** MPI name of a collective ("MPI_Allreduce", ...). *)
val collective_name : collective -> string

(** Stable CC colour per collective kind; colour 0 is {!cc_return_color},
    call colours (interprocedural extension) live at
    [Parcoach.Callgraph.call_color_base] and above. *)
val collective_color : collective -> int

val cc_return_color : int

(** MPI name of a split-phase start ("MPI_Ibarrier", ...). *)
val request_op_name : request_op -> string

(** Completion-time destination buffer ([Irecv]/[Iallreduce]), if any. *)
val request_buffer : request_op -> string option

(** Blocking collective with the same matching signature, if the
    operation is collective ([Ibarrier]/[Iallreduce]). *)
val request_collective : request_op -> collective option

(** A collective's argument expressions, in evaluation order:
    [[value; root]] for the rooted ones, [[value]] for the others. *)
val coll_args : collective -> expr list

(** [stmt_uses s] is what [s] evaluates at its own program point, in
    evaluation order, and the variable it assigns there (sub-blocks
    excluded).  The reads: a declaration's, assignment's, [compute]'s or
    [print]'s expression; a condition; loop bounds ([lo; hi]); call
    arguments; {!coll_args}; [value; dest; tag] of a send and [src; tag]
    of a receive, blocking or split-phase; an [Iallreduce]'s value; a
    [parallel]'s [num_threads].  The write: the variable of a [Decl] or
    [Assign], a receive or [MPI_Test] target, a collective's result, and
    the buffer of an [Irecv]/[Iallreduce] start (written at completion,
    attributed to the start, the only point that names it).  Loop
    variables and request variables are neither read nor written.  This
    is the one read/write table of the language: the dataflow analyses,
    the race and request passes, the validator and the interpreter's
    recorded accesses all derive from it. *)
val stmt_uses : stmt -> expr list * string option

(** Fold over every statement of a block in source order, nested blocks
    included. *)
val fold_stmts : ('a -> stmt -> 'a) -> 'a -> block -> 'a

(** All statements of a function, in source order. *)
val stmts_of_func : func -> stmt list

(** Number of statements (nested included). *)
val program_size : program -> int

(** Rebuild a function by mapping every block, innermost first. *)
val map_blocks : (block -> block) -> func -> func

(* Location-insensitive structural equality. *)

val equal_func : func -> func -> bool

val equal_program : program -> program -> bool

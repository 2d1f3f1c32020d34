(** Abstract syntax of the hybrid MPI+OpenMP mini-language.

    The language is a small structured imperative language with:
    - integer/boolean expressions, including MPI intrinsics ([rank()],
      [size()]) and OpenMP intrinsics ([omp_tid()], [omp_nthreads()]);
    - structured control flow ([if]/[while]/[for], procedures, [return]);
    - MPI collective operations as statements;
    - block-structured OpenMP constructs ([parallel], [single], [master],
      [critical], [barrier], worksharing [for] and [sections]).

    OpenMP constructs are syntactically block-structured, which gives the
    "explicit fork/join model, with perfectly nested regions" the paper
    assumes.  The [Check] statements are not part of the surface syntax:
    they are inserted by the PARCOACH instrumentation pass and interpreted
    natively by the simulator. *)

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

(** Reduction operators for [Reduce]/[Allreduce]/[Scan]/[Reduce_scatter]. *)
type reduce_op = Rsum | Rprod | Rmax | Rmin | Rland | Rlor

(** MPI collective operations.  Payloads are expressions evaluated by the
    calling process; [root] arguments select the root rank. *)
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

(** Nonblocking (split-phase) MPI operations.  Each starts an operation
    and binds a request value; the operation only completes at a matching
    [Wait]/[Test].  Buffer-receiving operations ([Irecv], [Iallreduce])
    name the destination variable, which must not be read between start
    and completion. *)
type request_op =
  | Ibarrier
  | Iallreduce of { op : reduce_op; target : string; value : expr }
  | Isend of { value : expr; dest : expr; tag : expr }
  | Irecv of { target : string; src : expr; tag : expr }
      (** A [src] of [-1] is MPI_ANY_SOURCE (wildcard). *)

(** Runtime checks inserted by the instrumentation pass (never parsed).

    [Cc_next_collective] and [Cc_return] implement the paper's [CC]
    function (Algorithm 3 of the IJHPCA'14 PARCOACH paper): an
    Allreduce-style agreement on the colour of the next collective, aborting
    the program cleanly on divergence.  [Assert_monothread] validates the
    nodes of the set [Sipw]; [Count_enter]/[Count_exit] implement the
    concurrent-region counters for the set [Scc]. *)
type check =
  | Cc_next_collective of { color : int; coll_name : string }
  | Cc_return
  | Assert_monothread of { region : int }
  | Count_enter of { region : int }
  | Count_exit of { region : int }

type stmt = { sdesc : sdesc; sloc : Loc.t }

and sdesc =
  | Decl of string * expr  (** [var x = e;] introduces a (shared) variable. *)
  | Assign of string * expr
  | If of expr * block * block
  | While of expr * block
  | For of string * expr * expr * block
      (** [for x = lo to hi { ... }]: sequential loop, [x] in [lo..hi-1]. *)
  | Return
  | Call of string * expr list  (** Procedure call statement. *)
  | Compute of expr  (** Simulated computation of the given cost. *)
  | Print of expr  (** Emits a trace event carrying the value. *)
  | Coll of string option * collective
      (** [x = MPI_Allreduce(e, sum);] — optional result target. *)
  | Send of { value : expr; dest : expr; tag : expr }
      (** [MPI_Send(value, dest, tag);] — eager point-to-point send.
          Outside the collective-validation scope of the analyses. *)
  | Recv of { target : string; src : expr; tag : expr }
      (** [x = MPI_Recv(src, tag);] — blocking receive; a [src] of [-1]
          is MPI_ANY_SOURCE. *)
  | Istart of { req : string; rop : request_op }
      (** [r = MPI_Ibarrier();] etc. — starts a split-phase operation and
          declares the request variable [req] (block-scoped, like
          [Decl]).  Request variables are opaque: only [Wait]/[Test] may
          name them. *)
  | Wait of { req : string }
      (** [MPI_Wait(r);] — blocks until the request completes. *)
  | Test of { target : string; req : string }
      (** [t = MPI_Test(r);] — nonblocking completion poll; writes 1 into
          [target] (completing the request) if complete, else 0. *)
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
          (** [reduction(op: x)] clause: each thread accumulates into a
              private copy of [x], combined into the shared [x] at the end
              of its chunk. *)
      body : block;
    }  (** Worksharing loop: iterations of [lo..hi-1] split over the team. *)
  | Omp_sections of { nowait : bool; sections : block list }
  | Check of check

and block = stmt list

type func = {
  fname : string;
  params : string list;
  body : block;
  floc : Loc.t;
}

type program = { funcs : func list }

(* ------------------------------------------------------------------ *)
(* Constructors and accessors                                          *)
(* ------------------------------------------------------------------ *)

let mk ?(loc = Loc.none) sdesc = { sdesc; sloc = loc }

let sdesc_tag = function
  | Decl _ -> 0
  | Assign _ -> 1
  | If _ -> 2
  | While _ -> 3
  | For _ -> 4
  | Return -> 5
  | Call _ -> 6
  | Compute _ -> 7
  | Print _ -> 8
  | Coll _ -> 9
  | Send _ -> 10
  | Recv _ -> 11
  | Istart _ -> 12
  | Wait _ -> 13
  | Test _ -> 14
  | Omp_parallel _ -> 15
  | Omp_single _ -> 16
  | Omp_master _ -> 17
  | Omp_critical _ -> 18
  | Omp_barrier -> 19
  | Omp_for _ -> 20
  | Omp_sections _ -> 21
  | Check _ -> 22

(* The hash is consistent with [==]: one statement value has one
   location and one tag.  Only synthesised code ([Loc.none],
   [Loc.builder]) puts many statements of one constructor at one
   location, where they share a bucket. *)
module Stmt_tbl = Hashtbl.Make (struct
  type t = stmt

  let equal = ( == )

  let hash s =
    let h =
      (s.sloc.Loc.line * 0x2c9277b5) + (s.sloc.Loc.col * 0x3f1) + sdesc_tag s.sdesc
    in
    (h lxor (h lsr 17)) land max_int
end)

(** [find_func p name] returns the function named [name], if any. *)
let find_func program name =
  List.find_opt (fun f -> String.equal f.fname name) program.funcs

(** Entry point of a program; raises [Not_found] if there is no [main]. *)
let main_func program =
  match find_func program "main" with
  | Some f -> f
  | None -> raise Not_found

let reduce_op_name = function
  | Rsum -> "sum"
  | Rprod -> "prod"
  | Rmax -> "max"
  | Rmin -> "min"
  | Rland -> "land"
  | Rlor -> "lor"

let reduce_op_of_name = function
  | "sum" -> Some Rsum
  | "prod" -> Some Rprod
  | "max" -> Some Rmax
  | "min" -> Some Rmin
  | "land" -> Some Rland
  | "lor" -> Some Rlor
  | _ -> None

(** The MPI name of a collective, used for matching and reporting. *)
let collective_name = function
  | Barrier -> "MPI_Barrier"
  | Bcast _ -> "MPI_Bcast"
  | Reduce _ -> "MPI_Reduce"
  | Allreduce _ -> "MPI_Allreduce"
  | Gather _ -> "MPI_Gather"
  | Scatter _ -> "MPI_Scatter"
  | Allgather _ -> "MPI_Allgather"
  | Alltoall _ -> "MPI_Alltoall"
  | Scan _ -> "MPI_Scan"
  | Reduce_scatter _ -> "MPI_Reduce_scatter"

(** Stable integer colour for each collective kind; used as the payload of
    the dynamic [CC] agreement check.  Colour [0] is reserved for
    [Cc_return] ("no further collective"). *)
let collective_color = function
  | Barrier -> 1
  | Bcast _ -> 2
  | Reduce _ -> 3
  | Allreduce _ -> 4
  | Gather _ -> 5
  | Scatter _ -> 6
  | Allgather _ -> 7
  | Alltoall _ -> 8
  | Scan _ -> 9
  | Reduce_scatter _ -> 10

let cc_return_color = 0

let all_collective_names =
  [
    "MPI_Barrier";
    "MPI_Bcast";
    "MPI_Reduce";
    "MPI_Allreduce";
    "MPI_Gather";
    "MPI_Scatter";
    "MPI_Allgather";
    "MPI_Alltoall";
    "MPI_Scan";
    "MPI_Reduce_scatter";
  ]

(** The MPI name of a split-phase operation start. *)
let request_op_name = function
  | Ibarrier -> "MPI_Ibarrier"
  | Iallreduce _ -> "MPI_Iallreduce"
  | Isend _ -> "MPI_Isend"
  | Irecv _ -> "MPI_Irecv"

let all_request_op_names =
  [ "MPI_Ibarrier"; "MPI_Iallreduce"; "MPI_Isend"; "MPI_Irecv" ]

(** The buffer variable a split-phase operation writes at completion,
    if any ([Irecv]/[Iallreduce]). *)
let request_buffer = function
  | Ibarrier | Isend _ -> None
  | Iallreduce { target; _ } | Irecv { target; _ } -> Some target

(** The blocking collective a split-phase collective start corresponds
    to, if any: an [Ibarrier]/[Iallreduce] round must match the same
    signature across ranks as its blocking counterpart. *)
let request_collective = function
  | Ibarrier -> Some Barrier
  | Iallreduce { op; value; _ } -> Some (Allreduce { op; value })
  | Isend _ | Irecv _ -> None

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

(** [fold_stmts f acc block] folds [f] over every statement of [block],
    recursing into all nested blocks (control flow and OpenMP bodies),
    in source order. *)
let rec fold_stmts f acc block =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s.sdesc with
      | If (_, bt, bf) -> fold_stmts f (fold_stmts f acc bt) bf
      | While (_, b) | For (_, _, _, b) -> fold_stmts f acc b
      | Omp_parallel { body; _ }
      | Omp_single { body; _ }
      | Omp_master body
      | Omp_critical (_, body)
      | Omp_for { body; _ } ->
          fold_stmts f acc body
      | Omp_sections { sections; _ } ->
          List.fold_left (fold_stmts f) acc sections
      | Decl _ | Assign _ | Return | Call _ | Compute _ | Print _ | Coll _
      | Send _ | Recv _ | Istart _ | Wait _ | Test _ | Omp_barrier | Check _
        ->
          acc)
    acc block

(** All statements of a function, in source order, nested included. *)
let stmts_of_func f = List.rev (fold_stmts (fun acc s -> s :: acc) [] f.body)

(** Number of statements in a program (nested included). *)
let program_size program =
  List.fold_left
    (fun n f -> fold_stmts (fun n _ -> n + 1) n f.body)
    0 program.funcs

(** Collective call sites of a function: [(target, collective, loc)] list. *)
let collectives_of_func f =
  List.rev
    (fold_stmts
       (fun acc s ->
         match s.sdesc with
         | Coll (tgt, c) -> (tgt, c, s.sloc) :: acc
         | _ -> acc)
       [] f.body)

(** [map_blocks f func] rebuilds [func] by applying [f] to every block,
    innermost blocks first.  Used by the instrumentation pass. *)
let map_blocks f func =
  let rec on_block block = f (List.map on_stmt block)
  and on_stmt s =
    let sdesc =
      match s.sdesc with
      | If (c, bt, bf) -> If (c, on_block bt, on_block bf)
      | While (c, b) -> While (c, on_block b)
      | For (x, lo, hi, b) -> For (x, lo, hi, on_block b)
      | Omp_parallel { num_threads; body } ->
          Omp_parallel { num_threads; body = on_block body }
      | Omp_single { nowait; body } ->
          Omp_single { nowait; body = on_block body }
      | Omp_master body -> Omp_master (on_block body)
      | Omp_critical (name, body) -> Omp_critical (name, on_block body)
      | Omp_for r -> Omp_for { r with body = on_block r.body }
      | Omp_sections { nowait; sections } ->
          Omp_sections { nowait; sections = List.map on_block sections }
      | ( Decl _ | Assign _ | Return | Call _ | Compute _ | Print _ | Coll _
        | Send _ | Recv _ | Istart _ | Wait _ | Test _ | Omp_barrier
        | Check _ ) as d ->
          d
    in
    { s with sdesc }
  in
  { func with body = on_block func.body }

(* ------------------------------------------------------------------ *)
(* Structural equality (location-insensitive)                          *)
(* ------------------------------------------------------------------ *)

let rec equal_expr a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Var x, Var y -> String.equal x y
  | Unop (o1, e1), Unop (o2, e2) -> o1 = o2 && equal_expr e1 e2
  | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
      o1 = o2 && equal_expr a1 a2 && equal_expr b1 b2
  | Rank, Rank | Size, Size | Tid, Tid | Nthreads, Nthreads -> true
  | ( (Int _ | Bool _ | Var _ | Unop _ | Binop _ | Rank | Size | Tid | Nthreads),
      _ ) ->
      false

let equal_collective a b =
  match (a, b) with
  | Barrier, Barrier -> true
  | Bcast a, Bcast b -> equal_expr a.root b.root && equal_expr a.value b.value
  | Reduce a, Reduce b ->
      a.op = b.op && equal_expr a.root b.root && equal_expr a.value b.value
  | Allreduce a, Allreduce b -> a.op = b.op && equal_expr a.value b.value
  | Gather a, Gather b -> equal_expr a.root b.root && equal_expr a.value b.value
  | Scatter a, Scatter b ->
      equal_expr a.root b.root && equal_expr a.value b.value
  | Allgather a, Allgather b -> equal_expr a.value b.value
  | Alltoall a, Alltoall b -> equal_expr a.value b.value
  | Scan a, Scan b -> a.op = b.op && equal_expr a.value b.value
  | Reduce_scatter a, Reduce_scatter b ->
      a.op = b.op && equal_expr a.value b.value
  | ( ( Barrier | Bcast _ | Reduce _ | Allreduce _ | Gather _ | Scatter _
      | Allgather _ | Alltoall _ | Scan _ | Reduce_scatter _ ),
      _ ) ->
      false

let equal_request_op a b =
  match (a, b) with
  | Ibarrier, Ibarrier -> true
  | Iallreduce a, Iallreduce b ->
      a.op = b.op
      && String.equal a.target b.target
      && equal_expr a.value b.value
  | Isend a, Isend b ->
      equal_expr a.value b.value && equal_expr a.dest b.dest
      && equal_expr a.tag b.tag
  | Irecv a, Irecv b ->
      String.equal a.target b.target
      && equal_expr a.src b.src && equal_expr a.tag b.tag
  | (Ibarrier | Iallreduce _ | Isend _ | Irecv _), _ -> false

let rec equal_stmt a b =
  match (a.sdesc, b.sdesc) with
  | Decl (x, e), Decl (y, f) -> String.equal x y && equal_expr e f
  | Assign (x, e), Assign (y, f) -> String.equal x y && equal_expr e f
  | If (c1, t1, f1), If (c2, t2, f2) ->
      equal_expr c1 c2 && equal_block t1 t2 && equal_block f1 f2
  | While (c1, b1), While (c2, b2) -> equal_expr c1 c2 && equal_block b1 b2
  | For (x1, l1, h1, b1), For (x2, l2, h2, b2) ->
      String.equal x1 x2 && equal_expr l1 l2 && equal_expr h1 h2
      && equal_block b1 b2
  | Return, Return -> true
  | Call (f1, a1), Call (f2, a2) ->
      String.equal f1 f2
      && List.length a1 = List.length a2
      && List.for_all2 equal_expr a1 a2
  | Compute e1, Compute e2 | Print e1, Print e2 -> equal_expr e1 e2
  | Coll (t1, c1), Coll (t2, c2) ->
      Option.equal String.equal t1 t2 && equal_collective c1 c2
  | Omp_parallel p1, Omp_parallel p2 ->
      Option.equal equal_expr p1.num_threads p2.num_threads
      && equal_block p1.body p2.body
  | Omp_single s1, Omp_single s2 ->
      s1.nowait = s2.nowait && equal_block s1.body s2.body
  | Omp_master b1, Omp_master b2 -> equal_block b1 b2
  | Omp_critical (n1, b1), Omp_critical (n2, b2) ->
      Option.equal String.equal n1 n2 && equal_block b1 b2
  | Omp_barrier, Omp_barrier -> true
  | Omp_for f1, Omp_for f2 ->
      String.equal f1.var f2.var && equal_expr f1.lo f2.lo
      && equal_expr f1.hi f2.hi && f1.nowait = f2.nowait
      && f1.reduction = f2.reduction
      && equal_block f1.body f2.body
  | Omp_sections s1, Omp_sections s2 ->
      s1.nowait = s2.nowait
      && List.length s1.sections = List.length s2.sections
      && List.for_all2 equal_block s1.sections s2.sections
  | Send s1, Send s2 ->
      equal_expr s1.value s2.value && equal_expr s1.dest s2.dest
      && equal_expr s1.tag s2.tag
  | Recv r1, Recv r2 ->
      String.equal r1.target r2.target && equal_expr r1.src r2.src
      && equal_expr r1.tag r2.tag
  | Istart s1, Istart s2 ->
      String.equal s1.req s2.req && equal_request_op s1.rop s2.rop
  | Wait w1, Wait w2 -> String.equal w1.req w2.req
  | Test t1, Test t2 ->
      String.equal t1.target t2.target && String.equal t1.req t2.req
  | Check c1, Check c2 -> c1 = c2
  | ( ( Decl _ | Assign _ | If _ | While _ | For _ | Return | Call _
      | Compute _ | Print _ | Coll _ | Send _ | Recv _ | Istart _ | Wait _
      | Test _ | Omp_parallel _ | Omp_single _ | Omp_master _
      | Omp_critical _ | Omp_barrier | Omp_for _ | Omp_sections _ | Check _ ),
      _ ) ->
      false

and equal_block a b =
  List.length a = List.length b && List.for_all2 equal_stmt a b

let equal_func a b =
  String.equal a.fname b.fname
  && List.length a.params = List.length b.params
  && List.for_all2 String.equal a.params b.params
  && equal_block a.body b.body

let equal_program a b =
  List.length a.funcs = List.length b.funcs
  && List.for_all2 equal_func a.funcs b.funcs

(** Control-flow graphs for mini-language functions.  OpenMP directives
    occupy their own [Omp_begin]/[Omp_end] nodes and implicit thread
    barriers get dedicated [Barrier_node]s (as in the paper's front end);
    MPI collectives are isolated in [Collective] nodes.  Region
    identifiers are the node ids of the [Omp_begin] nodes.

    A graph is immutable: it is built once through a {!builder} and then
    only read.  {!finish} packs the edges into compressed sparse row
    (CSR) int arrays, which every analysis iterates. *)

type region_kind =
  | Rparallel
  | Rsingle of { nowait : bool }
  | Rmaster
  | Rcritical of string option
  | Rfor of { nowait : bool }
  | Rsections of { nowait : bool }
  | Rsection  (** One branch of a [sections] construct. *)

val region_kind_name : region_kind -> string

type kind =
  | Entry
  | Exit
  | Simple of Minilang.Ast.stmt list
      (** Straight-line statements (decls, assignments, compute, print). *)
  | Cond of { expr : Minilang.Ast.expr; stmt : Minilang.Ast.stmt }
      (** Two successors, in order: true branch then false branch. *)
  | Collective of {
      target : string option;
      coll : Minilang.Ast.collective;
      stmt : Minilang.Ast.stmt;
    }
  | Call_site of {
      fname : string;
      args : Minilang.Ast.expr list;
      stmt : Minilang.Ast.stmt;
    }
  | Return_site of { stmt : Minilang.Ast.stmt }
  | Omp_begin of { kind : region_kind; stmt : Minilang.Ast.stmt }
  | Omp_end of { kind : region_kind; region : int; stmt : Minilang.Ast.stmt }
      (** [region] is the id of the matching [Omp_begin] node. *)
  | Barrier_node of { implicit : bool; loc : Minilang.Loc.t }
  | Check_site of { check : Minilang.Ast.check; stmt : Minilang.Ast.stmt }

type node = { id : int; kind : kind }

(** Each node's successors are the slice [succ_tgt.(succ_off.(id)) ..
    succ_tgt.(succ_off.(id + 1) - 1)], in insertion order; predecessors
    likewise in [pred_off]/[pred_tgt]. *)
type t = private {
  fname : string;
  entry : int;
  exit : int;
  nodes : node array;  (** Indexed by id. *)
  succ_off : int array;
  succ_tgt : int array;
  pred_off : int array;
  pred_tgt : int array;
}

val entry_id : int

val exit_id : int

val nb_nodes : t -> int

(** @raise Invalid_argument on a bad id. *)
val node : t -> int -> node

val kind : t -> int -> kind

(** Successor ids in insertion order (significant for [Cond]: true branch
    first).  Allocates; hot paths should prefer {!iter_succs} and
    friends. *)
val succs : t -> int -> int list

val preds : t -> int -> int list

val iter_succs : t -> int -> (int -> unit) -> unit

val iter_preds : t -> int -> (int -> unit) -> unit

val fold_succs : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val fold_preds : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val out_degree : t -> int -> int

val in_degree : t -> int -> int

(** [nth_succ g id k] is the [k]-th successor of [id] (0-based, insertion
    order); bounds are the caller's responsibility via {!out_degree}. *)
val nth_succ : t -> int -> int -> int

val nth_pred : t -> int -> int -> int

val iter_nodes : t -> (node -> unit) -> unit

val fold_nodes : t -> ('a -> node -> 'a) -> 'a -> 'a

(** Node ids whose kind satisfies the predicate, in id order. *)
val filter_nodes : t -> (kind -> bool) -> int list

(** {1 Building} *)

(** A graph under construction: nodes and edges in insertion order.
    {!Build} is its one user outside the tests. *)
type builder

val builder : string -> builder

(** The next id, from 0 ({!entry_id}, then {!exit_id}). *)
val add_node : builder -> kind -> int

(** O(1) amortised append; parallel edges are kept.
    @raise Invalid_argument on a bad id. *)
val add_edge : builder -> int -> int -> unit

(** Pack the edges into CSR arrays, keeping each node's edge order. *)
val finish : builder -> t

(** Source location a node can be reported at. *)
val node_loc : t -> int -> Minilang.Loc.t

(** Short label for DOT dumps and debugging. *)
val kind_label : t -> int -> string

(** Collective nodes, in id order. *)
val collective_nodes : t -> int list

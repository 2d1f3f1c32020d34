(** Generic iterative dataflow framework over {!Graph.t}, plus the classic
    analyses of the compilation pipeline (liveness, reaching definitions,
    constant propagation, available expressions, copy propagation) and the
    rank-taint analysis used to filter phase-3 conditionals. *)

module StringSet : Set.S with type elt = string

(* Expression / node helpers *)

val expr_vars : StringSet.t -> Minilang.Ast.expr -> StringSet.t

(** Expressions evaluated by a node. *)
val node_uses : Graph.t -> int -> Minilang.Ast.expr list

val node_used_vars : Graph.t -> int -> StringSet.t

(** Variables assigned by a node. *)
val node_defs : Graph.t -> int -> StringSet.t

(* Generic solver *)

type direction = Forward | Backward

(** Worklist fixpoint; returns per-node (input, output) facts.  For a
    [Forward] analysis the input is joined over predecessors and the entry
    receives [init]; must-analyses pass their top element as [bottom].
    [order] seeds the worklist (default: the reverse postorder in the
    analysis direction). *)
val solve :
  ?order:int array ->
  Graph.t ->
  direction ->
  equal:('fact -> 'fact -> bool) ->
  join:('fact -> 'fact -> 'fact) ->
  transfer:(int -> 'fact -> 'fact) ->
  init:'fact ->
  bottom:'fact ->
  'fact array * 'fact array

(* Analyses *)

(** Backward may-analysis; returns [(live_in, live_out)]. *)
val liveness : Graph.t -> StringSet.t array * StringSet.t array

module DefSet : Set.S with type elt = string * int

(** Forward may-analysis of (variable, defining node) pairs; returns
    [(reach_in, reach_out)]. *)
val reaching_definitions : Graph.t -> DefSet.t array * DefSet.t array

module ConstMap : Map.S with type key = string

type const_value = Const of int | NonConst

val const_join : const_value ConstMap.t -> const_value ConstMap.t -> const_value ConstMap.t

val const_equal : const_value ConstMap.t -> const_value ConstMap.t -> bool

(** Constant-fold an expression under a constant environment. *)
val eval_const : const_value ConstMap.t -> Minilang.Ast.expr -> int option

(** Forward constant propagation; collective results and calls are
    non-constant.  Returns [(in_maps, out_maps)]. *)
val constant_propagation :
  Graph.t -> const_value ConstMap.t array * const_value ConstMap.t array

module ExprSet : Set.S with type elt = Minilang.Ast.expr

(** Forward must-analysis of computed-and-not-killed expressions; returns
    [(avail_in, avail_out)]. *)
val available_expressions : Graph.t -> ExprSet.t array * ExprSet.t array

module CopyMap : Map.S with type key = string

(** Forward must-analysis of copies [x := y]; a binding [x ↦ y] means [x]
    can be replaced by [y].  Returns [(in_maps, out_maps)]. *)
val copy_propagation : Graph.t -> string CopyMap.t array * string CopyMap.t array

(** Forward taint: which variables may differ across ranks/threads?
    Sources are [rank()]/[omp_tid()]; symmetric collective results
    launder, rank-dependent ones taint; [params] are conservatively
    tainted.  [rpo], when given, must be the graph's reverse postorder
    (e.g. {!Actx.rpo}).  Returns [(in_sets, out_sets)]. *)
val rank_taint :
  ?rpo:int array ->
  Graph.t ->
  params:string list ->
  StringSet.t array * StringSet.t array

(** May the condition of node [id] evaluate differently on different
    processes?  [false] for non-[Cond] nodes. *)
val cond_rank_dependent :
  ?rpo:int array -> Graph.t -> params:string list -> int -> bool

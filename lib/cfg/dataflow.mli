(** Generic iterative dataflow framework over {!Graph.t}, plus the classic
    analyses of the compilation pipeline (liveness, reaching definitions,
    constant propagation, available expressions, copy propagation) and the
    rank-taint analysis used to filter phase-3 conditionals. *)

module StringSet : Set.S with type elt = string

(* Expression / node helpers *)

val expr_vars : StringSet.t -> Minilang.Ast.expr -> StringSet.t

val node_used_vars : Graph.t -> int -> StringSet.t

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

(** Forward rank taint: may the condition of node [id] evaluate
    differently on different processes or threads?  Sources are
    [rank()]/[omp_tid()]; symmetric collective results launder,
    rank-dependent ones taint; [params] are conservatively tainted.
    [rpo] is the graph's reverse postorder (the pipeline passes
    {!Actx.rpo}; {!Actx.rank_dependent} caches the result).  [false] for
    non-[Cond] nodes. *)
val cond_rank_dependent :
  rpo:int array -> Graph.t -> params:string list -> int -> bool

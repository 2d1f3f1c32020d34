(** Phase 3 (Algorithm 1 of the PARCOACH IJHPCA'14 paper): all processes
    must execute the same sequence of collectives.  Call sites are grouped
    by collective name and sequence position; the iterated post-dominance
    frontier of each class yields the control-flow divergence points. *)

type cls = {
  name : string;
  depth : int;  (** Sequence-position class (longest-path numbering). *)
  nodes : int list;  (** Call sites. *)
  conds : int list;  (** [PDF+] conditionals (after optional filtering). *)
}

type result = {
  classes : cls list;  (** Every class, clean ones included. *)
  flagged : cls list;  (** Classes with non-empty [conds]. *)
}

(** Longest-path collective depth of every node (back edges ignored);
    [is_site] marks additional pseudo-collective nodes.  [actx], when
    given, supplies the cached reverse postorder. *)
val collective_depths :
  ?is_site:(int -> bool) -> ?actx:Cfg.Actx.t -> Cfg.Graph.t -> int array

(** [analyze g ~taint_filter ~params]: with [taint_filter:true], only
    rank-dependent conditionals (per {!Cfg.Dataflow.rank_taint}) are
    retained.  [call_collects] enables the interprocedural extension:
    call sites whose callee may execute collectives become
    pseudo-collective sites named ["call:<fname>"].  [actx], when given,
    must be the {!Cfg.Actx} of [g]: the post-dominator tree, frontiers and
    taint predicate are taken from (and cached in) the context.  A
    function without sites returns no class before building any of them,
    and the taint is forced only by a conditional in some [PDF+]. *)
val analyze :
  ?call_collects:(string -> bool) ->
  ?actx:Cfg.Actx.t ->
  Cfg.Graph.t ->
  taint_filter:bool ->
  params:string list ->
  result

val warnings : Cfg.Graph.t -> fname:string -> result -> Warning.t list

(** Call sites requiring a dynamic [CC] check. *)
val cc_sites : result -> int list

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

(** [analyze actx ~taint_filter] runs Algorithm 1 on the graph of
    [actx].  With [taint_filter:true], only rank-dependent conditionals
    (per {!Cfg.Actx.rank_dependent}) are retained.  [call_collects]
    enables the interprocedural extension: call sites whose callee may
    execute collectives become pseudo-collective sites named
    ["call:<fname>"].  The post-dominator tree, frontiers and taint
    predicate are read from (and cached in) the context.  A function
    without sites returns no class before building any of them, and the
    taint is forced only by a conditional in some [PDF+]. *)
val analyze :
  ?call_collects:(string -> bool) -> Cfg.Actx.t -> taint_filter:bool -> result

val warnings : Cfg.Graph.t -> fname:string -> result -> Warning.t list

(** Call sites requiring a dynamic [CC] check. *)
val cc_sites : result -> int list

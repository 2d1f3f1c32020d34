(** The analysis context of one function: its CFG and parameter list,
    plus the derived facts the static passes read (reverse postorder,
    iterated post-dominance frontiers, rank taint), each computed at most
    once and only when first asked for.

    A pass reaches a graph's derived facts only through a context: it
    takes an [Actx.t] and reads the graph from {!graph}, so the graph and
    its facts cannot disagree. *)

type t

(** [create ~params g]: an empty context for the function with CFG [g]
    and parameter list [params]. *)
val create : params:string list -> Graph.t -> t

val graph : t -> Graph.t

(** Reverse postorder from the entry. *)
val rpo : t -> int array

(** Iterated post-dominance frontier of a node set ([PDF+], PARCOACH's
    Algorithm 1), on the post-dominator tree and frontiers built on the
    first call. *)
val pdf_plus : t -> int list -> int list

(** Rank-dependence predicate for [Cond] nodes (see
    {!Dataflow.cond_rank_dependent}), with the function's parameters
    conservatively tainted. *)
val rank_dependent : t -> int -> bool

(** Names of the filled caches (["rpo"], ["pdom"], ["pdom_frontiers"],
    ["rank_dep"]): lets a test observe which facts a pass built. *)
val populated : t -> string list

(** Shared per-CFG analysis context: memoizes the derived structures of a
    graph (traversal orders, dominator trees, frontiers, loops, taint) so
    the pipeline phases compute each at most once.

    The context is the {e only} entry point the analysis pipeline uses for
    dominance and traversal work. *)

type t

val create : Graph.t -> t

val graph : t -> Graph.t

(** Reverse postorder from the entry, cached. *)
val rpo : t -> int array

(** Forward dominator tree, cached. *)
val dom : t -> Dominance.t

(** Post-dominator tree, cached. *)
val pdom : t -> Dominance.t

val pdom_frontiers : t -> int list array

(** Iterated post-dominance frontier of a node set ([PDF+]), on the
    cached tree and frontiers. *)
val pdf_plus : t -> int list -> int list

val loops : t -> Loops.loop list

(** Rank-dependence predicate for [Cond] nodes, cached per parameter
    list. *)
val rank_dependent : t -> params:string list -> (int -> bool)

(** Names of the populated caches, for tests and debugging. *)
val populated : t -> string list

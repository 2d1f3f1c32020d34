(** Dominator trees and dominance frontiers in both directions
    (Cooper–Harvey–Kennedy); post-dominance is dominance on the reversed
    graph rooted at the exit.  PARCOACH's phase 3 uses the iterated
    post-dominance frontier [PDF+]; the static passes read it through
    {!Actx.pdf_plus}, which builds the post-dominator tree and its
    frontiers once per function. *)

type direction = Forward | Backward

type t = {
  g : Graph.t;
  dir : direction;
  root : int;
  idom : int array;  (** Immediate dominator; [-1] for unreachable. *)
  order_index : int array;
}

(** [Forward] computes dominators from the entry; [Backward] computes
    post-dominators from the exit. *)
val compute : Graph.t -> direction -> t

(** Immediate dominator ([None] for the root / unreachable nodes). *)
val idom : t -> int -> int option

val is_reachable : t -> int -> bool

(** Reflexive (post-)dominance test. *)
val dominates : t -> int -> int -> bool

(** Dominance frontier of each node (Cytron et al.); dedup is O(1) via a
    last-inserted marker rather than a list scan. *)
val frontiers : t -> int list array

(** Iterated dominance frontier of a node set (with [Backward]: the
    [PDF+] of PARCOACH's Algorithm 1). *)
val iterated_frontier : t -> int list array -> int list -> int list

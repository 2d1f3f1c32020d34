(** Graph traversals and orderings over {!Graph.t}, iterating the packed
    CSR adjacency with an explicit DFS stack. *)

(** Depth-first postorder of the nodes reachable from [root], following
    successors ([backward:false]) or predecessors ([backward:true]). *)
val postorder_array : Graph.t -> root:int -> backward:bool -> int array

(** Reverse postorder from the entry, following successors. *)
val rpo_array : Graph.t -> int array

(** Reverse postorder on the edge-reversed graph, from the exit. *)
val rpo_backward_array : Graph.t -> int array

(** Reachability from the entry, indexed by node id. *)
val reachable : Graph.t -> bool array

val path_exists : Graph.t -> int -> int -> bool

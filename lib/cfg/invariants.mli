(** Structural invariants of well-formed CFGs (edge symmetry, arity of
    branch/interior nodes, matched and balanced OpenMP regions,
    implicit-barrier placement, exit reachability), for the test
    suite. *)

(** Violated invariants as human-readable strings; empty if well-formed. *)
val check : Graph.t -> string list

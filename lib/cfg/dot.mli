(** Graphviz (DOT) export of CFGs; collectives, OpenMP region nodes,
    barriers and checks are styled distinctly. *)

val escape : string -> string

(** [to_dot ?annot g]: [annot id] may add an extra label line per node
    (e.g. its parallelism word). *)
val to_dot : ?annot:(int -> string option) -> Graph.t -> string

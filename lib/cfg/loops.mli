(** Natural-loop detection (back edges to a dominator). *)

type loop = {
  header : int;
  back_edges : (int * int) list;  (** (tail, header) pairs. *)
  body : int list;  (** Body node ids, header included. *)
}

(** All natural loops, grouped by header, headers increasing.  [dom], when
    given, must be the forward dominator tree of the graph (e.g. cached in
    {!Actx}); it is computed otherwise. *)
val detect : ?dom:Dominance.t -> Graph.t -> loop list

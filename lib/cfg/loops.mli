(** Natural-loop detection (back edges to a dominator). *)

type loop = {
  header : int;
  back_edges : (int * int) list;  (** (tail, header) pairs. *)
  body : int list;  (** Body node ids, header included. *)
}

(** All natural loops, grouped by header, headers increasing. *)
val detect : Graph.t -> loop list

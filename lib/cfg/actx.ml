(** The analysis context of one function.

    The role GCC's middle end plays for PARCOACH: it holds a function's
    CFG and parameter list and computes the derived facts the static
    passes share — reverse postorder, the post-dominator tree and its
    frontiers (for [PDF+]), and the rank-taint predicate — at most once,
    on first use.  A graph is immutable once built, so a context's caches
    stay valid for as long as the context lives. *)

type t = {
  graph : Graph.t;
  params : string list;
  mutable rpo : int array option;
  mutable pdom : Dominance.t option;
  mutable pdom_frontiers : int list array option;
  mutable rank_dep : (int -> bool) option;
}

let create ~params graph =
  {
    graph;
    params;
    rpo = None;
    pdom = None;
    pdom_frontiers = None;
    rank_dep = None;
  }

let graph t = t.graph

let memo get set compute t =
  match get t with
  | Some v -> v
  | None ->
      let v = compute t in
      set t v;
      v

let rpo =
  memo
    (fun t -> t.rpo)
    (fun t v -> t.rpo <- Some v)
    (fun t -> Traversal.rpo_array t.graph)

let pdom =
  memo
    (fun t -> t.pdom)
    (fun t v -> t.pdom <- Some v)
    (fun t -> Dominance.compute t.graph Dominance.Backward)

let pdom_frontiers =
  memo
    (fun t -> t.pdom_frontiers)
    (fun t v -> t.pdom_frontiers <- Some v)
    (fun t -> Dominance.frontiers (pdom t))

let pdf_plus t set = Dominance.iterated_frontier (pdom t) (pdom_frontiers t) set

let rank_dependent =
  memo
    (fun t -> t.rank_dep)
    (fun t v -> t.rank_dep <- Some v)
    (fun t ->
      Dataflow.cond_rank_dependent ~rpo:(rpo t) t.graph ~params:t.params)

let populated t =
  List.filter_map
    (fun (name, filled) -> if filled then Some name else None)
    [
      ("rpo", t.rpo <> None);
      ("pdom", t.pdom <> None);
      ("pdom_frontiers", t.pdom_frontiers <> None);
      ("rank_dep", t.rank_dep <> None);
    ]

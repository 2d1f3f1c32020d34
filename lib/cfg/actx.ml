(** Shared per-CFG analysis context.

    The static pipeline used to recompute dominator trees, traversal
    orders and taint results independently in each phase.  [Actx] memoizes
    every derived structure of a graph — RPO in both directions, forward
    and backward dominator trees, their frontiers, loop nests, rank-taint
    predicates — so phases 1–3 (and anything after them) compute each at
    most once.  Creating a context freezes the graph: the packed CSR
    adjacency is the representation all cached structures index into.

    A context caches structures of one graph snapshot; mutating the graph
    after {!create} invalidates the context (callers must create a fresh
    one — the driver creates one per function per run, so this never
    arises in the pipeline). *)

type t = {
  graph : Graph.t;
  mutable rpo : int array option;
  mutable rpo_backward : int array option;
  mutable dom : Dominance.t option;
  mutable pdom : Dominance.t option;
  mutable dom_frontiers : int list array option;
  mutable pdom_frontiers : int list array option;
  mutable loops : Loops.loop list option;
  mutable rank_dep : (string list * (int -> bool)) option;
      (** Taint predicate, keyed by the parameter list it was built for. *)
}

let create graph =
  Graph.freeze graph;
  {
    graph;
    rpo = None;
    rpo_backward = None;
    dom = None;
    pdom = None;
    dom_frontiers = None;
    pdom_frontiers = None;
    loops = None;
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

let rpo_backward =
  memo
    (fun t -> t.rpo_backward)
    (fun t v -> t.rpo_backward <- Some v)
    (fun t -> Traversal.rpo_backward_array t.graph)

let dom =
  memo
    (fun t -> t.dom)
    (fun t v -> t.dom <- Some v)
    (fun t -> Dominance.compute t.graph Dominance.Forward)

let pdom =
  memo
    (fun t -> t.pdom)
    (fun t v -> t.pdom <- Some v)
    (fun t -> Dominance.compute t.graph Dominance.Backward)

let dom_frontiers =
  memo
    (fun t -> t.dom_frontiers)
    (fun t v -> t.dom_frontiers <- Some v)
    (fun t -> Dominance.frontiers (dom t))

let pdom_frontiers =
  memo
    (fun t -> t.pdom_frontiers)
    (fun t v -> t.pdom_frontiers <- Some v)
    (fun t -> Dominance.frontiers (pdom t))

(** Iterated post-dominance frontier of [set] ([PDF+], PARCOACH's
    Algorithm 1), on the cached post-dominator tree and frontiers. *)
let pdf_plus t set = Dominance.iterated_frontier (pdom t) (pdom_frontiers t) set

let loops =
  memo
    (fun t -> t.loops)
    (fun t v -> t.loops <- Some v)
    (fun t -> Loops.detect ~dom:(dom t) t.graph)

(** Rank-dependence predicate for [Cond] nodes (see
    {!Dataflow.cond_rank_dependent}), seeded with the cached reverse
    postorder.  The cache is keyed by [params]: the pipeline analyses one
    function per graph, so this is a hit after the first call. *)
let rank_dependent t ~params =
  match t.rank_dep with
  | Some (p, f) when List.equal String.equal p params -> f
  | _ ->
      let f = Dataflow.cond_rank_dependent ~rpo:(rpo t) t.graph ~params in
      t.rank_dep <- Some (params, f);
      f

(** Which caches are populated — observability for tests and debugging. *)
let populated t =
  List.filter_map
    (fun (name, filled) -> if filled then Some name else None)
    [
      ("rpo", t.rpo <> None);
      ("rpo_backward", t.rpo_backward <> None);
      ("dom", t.dom <> None);
      ("pdom", t.pdom <> None);
      ("dom_frontiers", t.dom_frontiers <> None);
      ("pdom_frontiers", t.pdom_frontiers <> None);
      ("loops", t.loops <> None);
      ("rank_dep", t.rank_dep <> None);
    ]

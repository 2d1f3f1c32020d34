(** Control-flow graphs for mini-language functions.

    As in the paper, OpenMP directives occupy their own nodes ([Omp_begin]/
    [Omp_end]) and implicit thread barriers get dedicated [Barrier_node]s,
    so the parallelism-word computation can treat them uniformly.  MPI
    collective calls are highlighted in their own [Collective] nodes.

    Region identifiers are the node ids of the [Omp_begin] nodes, matching
    the paper's "[P_i], with [i] the id of the node with the OpenMP
    construct".

    A graph is immutable.  {!Build} records its nodes and edges through a
    {!builder}, and {!finish} packs the edges once into compressed sparse
    row (CSR) int arrays: each node's successors, and its predecessors,
    are one slice of a flat array, in insertion order.  Every traversal
    and analysis iterates those slices. *)

type region_kind =
  | Rparallel
  | Rsingle of { nowait : bool }
  | Rmaster
  | Rcritical of string option
  | Rfor of { nowait : bool }
  | Rsections of { nowait : bool }
  | Rsection  (** One branch of a [sections] construct. *)

let region_kind_name = function
  | Rparallel -> "parallel"
  | Rsingle _ -> "single"
  | Rmaster -> "master"
  | Rcritical _ -> "critical"
  | Rfor _ -> "for"
  | Rsections _ -> "sections"
  | Rsection -> "section"

type kind =
  | Entry
  | Exit
  | Simple of Minilang.Ast.stmt list
      (** Straight-line statements: declarations, assignments, [compute],
          [print]. *)
  | Cond of { expr : Minilang.Ast.expr; stmt : Minilang.Ast.stmt }
      (** Two successors, in order: the true branch then the false branch. *)
  | Collective of {
      target : string option;
      coll : Minilang.Ast.collective;
      stmt : Minilang.Ast.stmt;
    }
  | Call_site of {
      fname : string;
      args : Minilang.Ast.expr list;
      stmt : Minilang.Ast.stmt;
    }
  | Return_site of { stmt : Minilang.Ast.stmt }
  | Omp_begin of { kind : region_kind; stmt : Minilang.Ast.stmt }
  | Omp_end of { kind : region_kind; region : int; stmt : Minilang.Ast.stmt }
      (** [region] is the id of the matching [Omp_begin] node. *)
  | Barrier_node of { implicit : bool; loc : Minilang.Loc.t }
  | Check_site of { check : Minilang.Ast.check; stmt : Minilang.Ast.stmt }

type node = { id : int; kind : kind }

(* A graph is built once and then only read.  Each node's successors are
   the slice [succ_tgt.(succ_off.(id)) .. succ_tgt.(succ_off.(id + 1) - 1)]
   of one flat array (compressed sparse row), in insertion order
   (significant for [Cond] nodes); predecessors likewise. *)
type t = {
  fname : string;
  entry : int;
  exit : int;
  nodes : node array;
  succ_off : int array;
  succ_tgt : int array;
  pred_off : int array;
  pred_tgt : int array;
}

let entry_id = 0

let exit_id = 1

let nb_nodes g = Array.length g.nodes

let node g id =
  if id < 0 || id >= Array.length g.nodes then invalid_arg "Graph.node: bad id";
  g.nodes.(id)

let kind g id = (node g id).kind

(** Iterate over all nodes in increasing id order. *)
let iter_nodes g f = Array.iter f g.nodes

let fold_nodes g f acc = Array.fold_left f acc g.nodes

(** All node ids whose kind satisfies [p]. *)
let filter_nodes g p =
  List.rev
    (fold_nodes g (fun acc n -> if p n.kind then n.id :: acc else acc) [])

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

(* Nodes and edges in insertion order; an edge is [src.(i) -> dst.(i)]. *)
type builder = {
  bname : string;
  mutable bnodes : node array;
  mutable nb : int;
  mutable src : int array;
  mutable dst : int array;
  mutable ne : int;
}

let dummy_node = { id = -1; kind = Entry }

let builder fname =
  {
    bname = fname;
    bnodes = Array.make 16 dummy_node;
    nb = 0;
    src = Array.make 16 0;
    dst = Array.make 16 0;
    ne = 0;
  }

let grow a len fill =
  let bigger = Array.make (2 * len) fill in
  Array.blit a 0 bigger 0 len;
  bigger

let add_node b kind =
  if b.nb = Array.length b.bnodes then b.bnodes <- grow b.bnodes b.nb dummy_node;
  let id = b.nb in
  b.bnodes.(id) <- { id; kind };
  b.nb <- id + 1;
  id

(** O(1) amortised; parallel edges are kept (a [Cond] whose branches are
    both empty legitimately has two edges to the join). *)
let add_edge b s d =
  if s < 0 || s >= b.nb || d < 0 || d >= b.nb then
    invalid_arg "Graph.add_edge: bad id";
  if b.ne = Array.length b.src then begin
    b.src <- grow b.src b.ne 0;
    b.dst <- grow b.dst b.ne 0
  end;
  b.src.(b.ne) <- s;
  b.dst.(b.ne) <- d;
  b.ne <- b.ne + 1

(* Counting sort of the edges by [key]: a stable pass, so each node's
   slice keeps insertion order. *)
let pack n ne key value =
  let off = Array.make (n + 1) 0 in
  for i = 0 to ne - 1 do
    off.(key.(i) + 1) <- off.(key.(i) + 1) + 1
  done;
  for id = 0 to n - 1 do
    off.(id + 1) <- off.(id + 1) + off.(id)
  done;
  let tgt = Array.make ne 0 in
  let next = Array.sub off 0 n in
  for i = 0 to ne - 1 do
    let k = key.(i) in
    tgt.(next.(k)) <- value.(i);
    next.(k) <- next.(k) + 1
  done;
  (off, tgt)

let finish b =
  let n = b.nb in
  let succ_off, succ_tgt = pack n b.ne b.src b.dst in
  let pred_off, pred_tgt = pack n b.ne b.dst b.src in
  {
    fname = b.bname;
    entry = entry_id;
    exit = exit_id;
    nodes = Array.sub b.bnodes 0 n;
    succ_off;
    succ_tgt;
    pred_off;
    pred_tgt;
  }

(* ------------------------------------------------------------------ *)
(* Adjacency queries                                                   *)
(* ------------------------------------------------------------------ *)

let out_degree g id =
  ignore (node g id);
  g.succ_off.(id + 1) - g.succ_off.(id)

let in_degree g id =
  ignore (node g id);
  g.pred_off.(id + 1) - g.pred_off.(id)

let nth_succ g id k = g.succ_tgt.(g.succ_off.(id) + k)

let nth_pred g id k = g.pred_tgt.(g.pred_off.(id) + k)

let iter_succs g id f =
  for k = g.succ_off.(id) to g.succ_off.(id + 1) - 1 do
    f g.succ_tgt.(k)
  done

let iter_preds g id f =
  for k = g.pred_off.(id) to g.pred_off.(id + 1) - 1 do
    f g.pred_tgt.(k)
  done

let fold_succs g id f acc =
  let acc = ref acc in
  for k = g.succ_off.(id) to g.succ_off.(id + 1) - 1 do
    acc := f !acc g.succ_tgt.(k)
  done;
  !acc

let fold_preds g id f acc =
  let acc = ref acc in
  for k = g.pred_off.(id) to g.pred_off.(id + 1) - 1 do
    acc := f !acc g.pred_tgt.(k)
  done;
  !acc

let slice off tgt id =
  List.init (off.(id + 1) - off.(id)) (fun k -> tgt.(off.(id) + k))

let succs g id =
  ignore (node g id);
  slice g.succ_off g.succ_tgt id

let preds g id =
  ignore (node g id);
  slice g.pred_off g.pred_tgt id

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** Source location a node can be reported at. *)
let node_loc g id =
  let open Minilang in
  match kind g id with
  | Entry | Exit -> Loc.none
  | Simple [] -> Loc.none
  | Simple (s :: _) -> s.Ast.sloc
  | Cond { stmt; _ }
  | Collective { stmt; _ }
  | Call_site { stmt; _ }
  | Return_site { stmt }
  | Omp_begin { stmt; _ }
  | Omp_end { stmt; _ }
  | Check_site { stmt; _ } ->
      stmt.Ast.sloc
  | Barrier_node { loc; _ } -> loc

let kind_label g id =
  let open Minilang in
  match kind g id with
  | Entry -> "entry"
  | Exit -> "exit"
  | Simple stmts -> Printf.sprintf "simple[%d]" (List.length stmts)
  | Cond { expr; _ } -> Printf.sprintf "cond(%s)" (Pretty.expr_to_string expr)
  | Collective { coll; _ } -> Ast.collective_name coll
  | Call_site { fname; _ } -> Printf.sprintf "call %s" fname
  | Return_site _ -> "return"
  | Omp_begin { kind; _ } ->
      Printf.sprintf "omp %s begin" (region_kind_name kind)
  | Omp_end { kind; region; _ } ->
      Printf.sprintf "omp %s end (r%d)" (region_kind_name kind) region
  | Barrier_node { implicit; _ } ->
      if implicit then "barrier (implicit)" else "barrier"
  | Check_site { check; _ } ->
      Fmt.str "check %a" Pretty.pp_check check

(** Collective nodes of the graph, in id order. *)
let collective_nodes g =
  filter_nodes g (function Collective _ -> true | _ -> false)

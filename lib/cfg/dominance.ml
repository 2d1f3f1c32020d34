(** Dominator trees and dominance frontiers, in both directions.

    Uses the Cooper–Harvey–Kennedy "engineered" iterative algorithm on
    reverse postorder.  A single implementation is parameterised by
    direction: post-dominance is dominance on the edge-reversed graph rooted
    at the exit node.  The inter-process phase of PARCOACH (Algorithm 1 of
    the IJHPCA'14 paper) relies on the {e iterated post-dominance frontier}
    [PDF+] computed here.

    Everything runs on the packed CSR adjacency: the worklist iterates an
    int-array RPO, and frontier dedup uses an O(1) last-inserted marker
    instead of a [List.mem] scan. *)

open Graph

type direction = Forward | Backward

type t = {
  g : Graph.t;
  dir : direction;
  root : int;
  idom : int array;  (** Immediate dominator; [root] maps to itself,
                         unreachable nodes map to [-1]. *)
  order_index : int array;  (** Position in reverse postorder; [-1] if
                                unreachable. *)
}

(* Degree / indexed-successor accessors along the [prev] direction of the
   analysis (predecessors for Forward, successors for Backward). *)
let prev_accessors g = function
  | Forward -> (in_degree g, nth_pred g)
  | Backward -> (out_degree g, nth_succ g)

(** Compute the (post-)dominator tree.  [Forward] computes dominators from
    the entry; [Backward] computes post-dominators from the exit. *)
let compute g dir =
  let root = match dir with Forward -> g.entry | Backward -> g.exit in
  let backward = dir = Backward in
  let po = Traversal.postorder_array g ~root ~backward in
  let nr = Array.length po in
  let rpo = Array.init nr (fun i -> po.(nr - 1 - i)) in
  let n = nb_nodes g in
  let order_index = Array.make n (-1) in
  Array.iteri (fun i id -> order_index.(id) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(root) <- root;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while order_index.(!a) > order_index.(!b) do
        a := idom.(!a)
      done;
      while order_index.(!b) > order_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let prev_deg, prev_nth = prev_accessors g dir in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to nr - 1 do
      let id = rpo.(i) in
      if id <> root then begin
        (* Fold the already-processed predecessors through [intersect]. *)
        let new_idom = ref (-1) in
        for k = 0 to prev_deg id - 1 do
          let p = prev_nth id k in
          if idom.(p) >= 0 then
            new_idom := if !new_idom < 0 then p else intersect !new_idom p
        done;
        if !new_idom >= 0 && idom.(id) <> !new_idom then begin
          idom.(id) <- !new_idom;
          changed := true
        end
      end
    done
  done;
  { g; dir; root; idom; order_index }

let idom t id = if id = t.root then None else
  match t.idom.(id) with -1 -> None | d -> Some d

let is_reachable t id = t.idom.(id) >= 0

(** [dominates t a b]: does [a] (post-)dominate [b]?  Reflexive. *)
let dominates t a b =
  if not (is_reachable t b) then false
  else
    let rec up x = x = a || (x <> t.root && up t.idom.(x)) in
    up b

(** Dominance frontier of each node (Cytron et al.).  For [Backward] this
    is the post-dominance frontier: the branch nodes at which control can
    avoid the given node.  Dedup uses a per-node "last frontier member
    inserted" marker, so membership is O(1) instead of a list scan. *)
let frontiers t =
  let g = t.g in
  let n = nb_nodes g in
  let df = Array.make n [] in
  let mark = Array.make n (-1) in
  let prev_deg, prev_nth = prev_accessors g t.dir in
  for id = 0 to n - 1 do
    if is_reachable t id then begin
      (* Count reachable predecessors: join nodes only. *)
      let np = ref 0 in
      for k = 0 to prev_deg id - 1 do
        if is_reachable t (prev_nth id k) then incr np
      done;
      if !np >= 2 then
        for k = 0 to prev_deg id - 1 do
          let p = prev_nth id k in
          if is_reachable t p then begin
            let runner = ref p in
            while !runner <> t.idom.(id) do
              if mark.(!runner) <> id then begin
                mark.(!runner) <- id;
                df.(!runner) <- id :: df.(!runner)
              end;
              runner := t.idom.(!runner)
            done
          end
        done
    end
  done;
  df

(** Iterated dominance frontier [DF+] of a node set: least fixpoint of
    [X ↦ DF(S ∪ X)].  With [Backward], this is the [PDF+] used by
    PARCOACH's inter-process verification. *)
let iterated_frontier t df set =
  let result = Hashtbl.create 16 in
  let worklist = Queue.create () in
  List.iter (fun id -> Queue.add id worklist) set;
  while not (Queue.is_empty worklist) do
    let id = Queue.pop worklist in
    if is_reachable t id then
      List.iter
        (fun f ->
          if not (Hashtbl.mem result f) then begin
            Hashtbl.replace result f ();
            Queue.add f worklist
          end)
        df.(id)
  done;
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) result [])

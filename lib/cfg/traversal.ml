(** Graph traversals and orderings over {!Graph.t}, running on the packed
    CSR adjacency.  DFS is iterative (explicit stack), so pathological
    graphs — e.g. 10k-node chains — cannot overflow the OCaml stack. *)

open Graph

(** Depth-first postorder of the nodes reachable from [root], following
    successors ([backward:false]) or predecessors ([backward:true]). *)
let postorder_array g ~root ~backward =
  let n = nb_nodes g in
  let deg, nth =
    if backward then (in_degree g, nth_pred g) else (out_degree g, nth_succ g)
  in
  let seen = Bytes.make n '\000' in
  let order = Array.make n 0 in
  let len = ref 0 in
  let stack_node = Array.make n 0 in
  let stack_edge = Array.make n 0 in
  let sp = ref 0 in
  let push id =
    Bytes.set seen id '\001';
    stack_node.(!sp) <- id;
    stack_edge.(!sp) <- 0;
    incr sp
  in
  push root;
  while !sp > 0 do
    let top = !sp - 1 in
    let id = stack_node.(top) in
    let k = stack_edge.(top) in
    if k < deg id then begin
      stack_edge.(top) <- k + 1;
      let next = nth id k in
      if Bytes.get seen next = '\000' then push next
    end
    else begin
      decr sp;
      order.(!len) <- id;
      incr len
    end
  done;
  Array.sub order 0 !len

(** Reverse postorder from the entry node, as an array. *)
let rpo_array g =
  let po = postorder_array g ~root:g.entry ~backward:false in
  let n = Array.length po in
  Array.init n (fun i -> po.(n - 1 - i))

(** Reverse postorder on the edge-reversed graph, from the exit. *)
let rpo_backward_array g =
  let po = postorder_array g ~root:g.exit ~backward:true in
  let n = Array.length po in
  Array.init n (fun i -> po.(n - 1 - i))

(** Nodes reachable from the entry. *)
let reachable g =
  let n = nb_nodes g in
  let seen = Array.make n false in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  seen.(g.entry) <- true;
  stack.(!sp) <- g.entry;
  incr sp;
  while !sp > 0 do
    decr sp;
    let id = stack.(!sp) in
    iter_succs g id (fun s ->
        if not seen.(s) then begin
          seen.(s) <- true;
          stack.(!sp) <- s;
          incr sp
        end)
  done;
  seen

(** [path_exists g a b] tests reachability of [b] from [a] along
    successor edges. *)
let path_exists g a b =
  let n = nb_nodes g in
  let seen = Array.make n false in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let found = ref (a = b) in
  seen.(a) <- true;
  stack.(!sp) <- a;
  incr sp;
  while (not !found) && !sp > 0 do
    decr sp;
    let id = stack.(!sp) in
    iter_succs g id (fun s ->
        if s = b then found := true
        else if not seen.(s) then begin
          seen.(s) <- true;
          stack.(!sp) <- s;
          incr sp
        end)
  done;
  !found

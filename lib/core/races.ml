(** Static data-race detection: a may-happen-in-parallel (MHP) relation
    over CFG nodes derived from parallelism words, barrier counts and
    single/master/section structure, combined with per-node def/use sets
    ({!Cfg.Dataflow.defuse}) and the shared-variable classifier
    ({!Sharing}).

    The MHP relation generalises the pairwise logic of {!Concurrency}
    (which only relates collective nodes in concurrent monothreaded
    regions): decompose [pw(n1) = w·u1], [pw(n2) = w·u2] with [w] the
    longest common prefix.

    - Different numbers of leading barriers in [u1]/[u2] put the nodes in
      different barrier phases of the innermost common context: ordered,
      hence not MHP — {e unless} one node lies on a cycle through a
      barrier, in which case the word fixpoint has truncated trailing
      [B]s at the loop join and phases from different iterations can
      overlap (the analysis then stays conservative and keeps the pair).
    - A multithreaded common context ([w ∉ L]) makes any two residual
      continuations concurrent: some two threads of the innermost team
      can sit at [n1] and [n2] simultaneously.
    - A monothreaded common context serialises everything except distinct
      single-like regions [S j]/[S k] ([j ≠ k]) opened from it, which may
      be claimed by different threads concurrently — the paper's phase-2
      situation.

    A single node is MHP with itself iff its own word is multithreaded
    (every thread of the team executes it).

    Race candidates are conflicting accesses (at least one write) to the
    same shared binding at MHP nodes; pairs whose two accesses are
    protected by a common critical name are discharged.  The result is an
    over-approximation — the differential test suite checks the converse
    direction: every race the dynamic vector-clock oracle observes is
    covered by a static warning. *)

open Minilang

type access = {
  node : int;
  var : string;
  decl_id : int;  (** Unique id of the declaration the access resolves to. *)
  write : bool;
  loc : Loc.t;
  criticals : string list;  (** Enclosing critical names, innermost first. *)
  completion_write : bool;
      (** The buffer write of a split-phase start ([Istart]): performed
          by the request's completion, so ordered before any access at a
          node where the request is no longer in flight. *)
}

type pair = {
  pvar : string;
  a1 : access;
  a2 : access;  (** Ordered: [a1.loc <= a2.loc]. *)
  feeds_collective : bool;
      (** The variable transitively feeds a collective argument or a
          conditional (the taint-style relevance refinement, reported as
          an attribute rather than used as a filter). *)
}

type result = {
  accesses : int;  (** Variable accesses extracted from the graph. *)
  shared_accesses : int;  (** Accesses that resolve to shared storage. *)
  mhp_candidates : int;
      (** Conflicting shared access pairs at MHP nodes, before the
          critical refinement. *)
  critical_filtered : int;  (** Candidates discharged by a common critical. *)
  wait_filtered : int;
      (** Candidates discharged by the request happens-before
          refinement: a completion write cannot race with an access at
          which the request is definitely completed ([MPI_Wait] is an
          ordering edge for that buffer, not a barrier). *)
  pairs : pair list;  (** Reported races, deduplicated by (var, sites). *)
}

(* ------------------------------------------------------------------ *)
(* The MHP relation over parallelism words                             *)
(* ------------------------------------------------------------------ *)

let rec split_common u v =
  match (u, v) with
  | x :: u', y :: v' when x = y ->
      let w, u'', v'' = split_common u' v' in
      (x :: w, u'', v'')
  | _ -> ([], u, v)

let rec leading_barriers = function
  | Pword.B :: r ->
      let n, r' = leading_barriers r in
      (n + 1, r')
  | u -> (0, u)

(** [mhp ~phase_blind w1 w2] for two distinct nodes.  [phase_blind] is
    set when either node lies on a cycle through a barrier: the leading
    barrier counts are then unreliable (the word fixpoint truncates
    trailing barriers at loop joins) and the phase test is skipped. *)
let mhp ~phase_blind w1 w2 =
  let w, u1, u2 = split_common w1 w2 in
  let b1, r1 = leading_barriers u1 in
  let b2, r2 = leading_barriers u2 in
  if b1 <> b2 && not phase_blind then false
  else if not (Pword.monothreaded w) then true
  else
    match (r1, r2) with
    | Pword.S j :: _, Pword.S k :: _ -> j <> k
    | _ -> false

(** May two dynamic instances of the same node overlap?  Yes iff its
    context is multithreaded: the whole team executes it. *)
let self_mhp w = not (Pword.monothreaded w)

(* ------------------------------------------------------------------ *)
(* Barrier cycles                                                      *)
(* ------------------------------------------------------------------ *)

(* Nodes lying on a cycle through a Barrier_node: reachable from some
   barrier that is reachable from them.  Those are exactly the barriers
   and the nodes whose strongly connected component holds a barrier, so
   one iterative Tarjan pass rooted at the barriers finds them all in
   O(N+E). *)
let barrier_loopy (g : Cfg.Graph.t) =
  let n = Cfg.Graph.nb_nodes g in
  let loopy = Array.make n false in
  let is_barrier id =
    match Cfg.Graph.kind g id with
    | Cfg.Graph.Barrier_node _ -> true
    | _ -> false
  in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let next_index = ref 0 in
  (* Tarjan's stack of open components, and the explicit DFS call stack
     (node, next successor rank). *)
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let on_stack = Bytes.make n '\000' in
  let call_node = Array.make n 0 in
  let call_edge = Array.make n 0 in
  let csp = ref 0 in
  let push v =
    index.(v) <- !next_index;
    low.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    Bytes.set on_stack v '\001';
    call_node.(!csp) <- v;
    call_edge.(!csp) <- 0;
    incr csp
  in
  (* [v] roots a component: it is the stack segment from [v] up. *)
  let pop_component v =
    let base = ref (!sp - 1) in
    while stack.(!base) <> v do
      decr base
    done;
    let has_barrier = ref false in
    for i = !base to !sp - 1 do
      Bytes.set on_stack stack.(i) '\000';
      if is_barrier stack.(i) then has_barrier := true
    done;
    if !has_barrier then
      for i = !base to !sp - 1 do
        loopy.(stack.(i)) <- true
      done;
    sp := !base
  in
  let visit root =
    push root;
    while !csp > 0 do
      let top = !csp - 1 in
      let v = call_node.(top) in
      let k = call_edge.(top) in
      if k < Cfg.Graph.out_degree g v then begin
        call_edge.(top) <- k + 1;
        let w = Cfg.Graph.nth_succ g v k in
        if index.(w) < 0 then push w
        else if Bytes.get on_stack w = '\001' then
          low.(v) <- Int.min low.(v) index.(w)
      end
      else begin
        decr csp;
        if low.(v) = index.(v) then pop_component v;
        if !csp > 0 then begin
          let u = call_node.(!csp - 1) in
          low.(u) <- Int.min low.(u) low.(v)
        end
      end
    done
  in
  for id = 0 to n - 1 do
    if index.(id) < 0 && is_barrier id then visit id
  done;
  loopy

(* ------------------------------------------------------------------ *)
(* Relevance: does the variable feed a collective or a conditional?    *)
(* ------------------------------------------------------------------ *)

module SSet = Set.Make (String)

let expr_vars e = Cfg.Dataflow.expr_vars Cfg.Dataflow.StringSet.empty e

let sset_of_expr e =
  Cfg.Dataflow.StringSet.fold SSet.add (expr_vars e) SSet.empty

(* Name-based backward closure over the function body: seed with the
   variables read by collective arguments and branch conditions, then
   pull in the right-hand sides of assignments to relevant variables
   until fixpoint.  Coarse (flow-insensitive) but only used to annotate
   warnings and bench counters, never to drop a race. *)
let relevant_vars (f : Ast.func) =
  let seeds = ref SSet.empty in
  let assigns = ref [] in
  let add_seed e = seeds := SSet.union (sset_of_expr e) !seeds in
  let coll_exprs (c : Ast.collective) =
    match c with
    | Ast.Barrier -> []
    | Ast.Bcast { root; value }
    | Ast.Reduce { root; value; _ }
    | Ast.Gather { root; value }
    | Ast.Scatter { root; value } ->
        [ root; value ]
    | Ast.Allreduce { value; _ }
    | Ast.Allgather { value }
    | Ast.Alltoall { value }
    | Ast.Scan { value; _ }
    | Ast.Reduce_scatter { value; _ } ->
        [ value ]
  in
  Ast.fold_stmts
    (fun () (s : Ast.stmt) ->
      match s.Ast.sdesc with
      | Ast.Decl (x, e) | Ast.Assign (x, e) -> assigns := (x, e) :: !assigns
      | Ast.If (c, _, _) | Ast.While (c, _) -> add_seed c
      | Ast.For (_, lo, hi, _) | Ast.Omp_for { lo; hi; _ } ->
          add_seed lo;
          add_seed hi
      | Ast.Coll (_, c) -> List.iter add_seed (coll_exprs c)
      | Ast.Call (_, args) -> List.iter add_seed args
      | Ast.Send { dest; tag; _ } ->
          add_seed dest;
          add_seed tag
      | _ -> ())
    () f.Ast.body;
  let rel = ref !seeds in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (x, e) ->
        if SSet.mem x !rel then
          let vs = sset_of_expr e in
          if not (SSet.subset vs !rel) then begin
            rel := SSet.union vs !rel;
            changed := true
          end)
      !assigns
  done;
  !rel

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

let shares_critical a1 a2 =
  List.exists (fun c -> List.mem c a2.criticals) a1.criticals

let order_pair v a1 a2 ~feeds =
  if Loc.compare a1.loc a2.loc <= 0 then
    { pvar = v; a1; a2; feeds_collective = feeds }
  else { pvar = v; a1 = a2; a2 = a1; feeds_collective = feeds }

let analyze ?requests ~(pword : Pword.t) (g : Cfg.Graph.t) (f : Ast.func) :
    result =
  let sharing = Sharing.analyze f in
  let du = Cfg.Dataflow.defuse g in
  let loopy = barrier_loopy g in
  let total = ref 0 in
  let shared = ref [] in
  let nshared = ref 0 in
  Array.iteri
    (fun node accs ->
      match Pword.pw_opt pword node with
      | None -> () (* unreachable *)
      | Some _ ->
          List.iter
            (fun (a : Cfg.Dataflow.du_access) ->
              incr total;
              if not a.Cfg.Dataflow.du_decl then
                match Sharing.info sharing a.Cfg.Dataflow.du_stmt with
                | None ->
                    (* Synthetic for-desugaring statement: its shared
                       accesses are re-extracted at the loop's Cond
                       node. *)
                    ()
                | Some inf -> (
                    match Sharing.shared inf a.Cfg.Dataflow.du_var with
                    | None -> ()
                    | Some b ->
                        incr nshared;
                        let completion_write =
                          a.Cfg.Dataflow.du_write
                          &&
                          match a.Cfg.Dataflow.du_stmt.Ast.sdesc with
                          | Ast.Istart _ -> true
                          | _ -> false
                        in
                        shared :=
                          {
                            node;
                            var = a.Cfg.Dataflow.du_var;
                            decl_id = b.Sharing.decl_id;
                            write = a.Cfg.Dataflow.du_write;
                            loc = a.Cfg.Dataflow.du_loc;
                            criticals = inf.Sharing.criticals;
                            completion_write;
                          }
                          :: !shared))
            accs)
    du;
  let accs = Array.of_list (List.rev !shared) in
  let n = Array.length accs in
  let relevant = lazy (relevant_vars f) in
  let candidates = ref 0 in
  let filtered = ref 0 in
  let wfiltered = ref 0 in
  (* Happens-before discharge: exactly one side is the completion write
     of a split-phase start, and at the other access's node the request
     is definitely completed (so an [MPI_Wait] intervenes on every
     path).  Restricted to distinct nodes: two dynamic instances of the
     same start racing with each other stay reported. *)
  let wait_ordered a1 a2 =
    match requests with
    | None -> false
    | Some r ->
        a1.node <> a2.node
        && (match (a1.completion_write, a2.completion_write) with
           | true, false ->
               Requests.completion_ordered r ~node:a2.node ~var:a1.var
           | false, true ->
               Requests.completion_ordered r ~node:a1.node ~var:a2.var
           | _ -> false)
  in
  let seen = Hashtbl.create 16 in
  let pairs = ref [] in
  let consider a1 a2 =
    if a1.decl_id = a2.decl_id && (a1.write || a2.write) then begin
      let concurrent =
        if a1.node = a2.node then self_mhp (Pword.pw pword a1.node)
        else
          mhp
            ~phase_blind:(loopy.(a1.node) || loopy.(a2.node))
            (Pword.pw pword a1.node) (Pword.pw pword a2.node)
      in
      if concurrent then begin
        incr candidates;
        if shares_critical a1 a2 then incr filtered
        else if wait_ordered a1 a2 then incr wfiltered
        else
          let key =
            if Loc.compare a1.loc a2.loc <= 0 then
              (a1.var, Loc.to_string a1.loc, Loc.to_string a2.loc)
            else (a1.var, Loc.to_string a2.loc, Loc.to_string a1.loc)
          in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let feeds = SSet.mem a1.var (Lazy.force relevant) in
            pairs := order_pair a1.var a1 a2 ~feeds :: !pairs
          end
      end
    end
  in
  for i = 0 to n - 1 do
    (* Same-node write accesses race with their own other dynamic
       instances when the node is multithreaded, so the diagonal is
       included for writes. *)
    if accs.(i).write then consider accs.(i) accs.(i);
    for j = i + 1 to n - 1 do
      consider accs.(i) accs.(j)
    done
  done;
  {
    accesses = !total;
    shared_accesses = !nshared;
    mhp_candidates = !candidates;
    critical_filtered = !filtered;
    wait_filtered = !wfiltered;
    pairs = List.rev !pairs;
  }

(* ------------------------------------------------------------------ *)
(* Warnings                                                            *)
(* ------------------------------------------------------------------ *)

let advice_of p =
  if p.a1.criticals <> [] || p.a2.criticals <> [] then
    "a critical section protects only one side; put both accesses under \
     the same critical name"
  else
    "protect both accesses with one critical section or order them with a \
     barrier"

let warnings (_ : Cfg.Graph.t) ~fname (r : result) =
  List.map
    (fun p ->
      {
        Warning.kind =
          Warning.Data_race
            {
              var = p.pvar;
              write1 = p.a1.write;
              loc1 = p.a1.loc;
              write2 = p.a2.write;
              loc2 = p.a2.loc;
              feeds_collective = p.feeds_collective;
              advice = advice_of p;
            };
        func = fname;
        loc = p.a1.loc;
      })
    r.pairs

(** Static data-race detection: a may-happen-in-parallel (MHP) relation
    over CFG nodes derived from parallelism words, barrier counts and
    single/master/section structure, over the shared accesses that one
    scoped walk of the function body finds: the reads and writes, under
    a [parallel], of storage declared outside the innermost region.  A
    function without such accesses pays for the walk only.

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
(* Shared accesses: one scoped walk                                    *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)
module SSet = Cfg.Dataflow.StringSet

let expr_vars e = Cfg.Dataflow.expr_vars SSet.empty e

(* The anonymous critical's reserved name (kept in sync with
   [Ompsim.Critical.anonymous]; this library does not link ompsim). *)
let anonymous_critical = "<anonymous>"

(* One visible binding: the unique declaration it resolves to and the
   parallel depth that declaration was made at. *)
type binding = { decl : int; depth : int }

(* Scope facts before a statement executes. *)
type scope = {
  pdepth : int;  (* Number of enclosing [parallel] constructs. *)
  criticals : string list;  (* Enclosing critical names, innermost first. *)
  bindings : binding SMap.t;
}

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

(* What a statement reads, in evaluation order, and the variable it
   writes, at the CFG node that carries it: straight-line statements at
   their [Simple] node; conditions and loop bounds at the [Cond] node;
   collective and call arguments at their node; [num_threads] at the
   parallel region's [Omp_begin].  Declarations and loop variables
   create fresh storage, so their writes cannot race and are left out.
   A split-phase buffer is written at completion but attributed to the
   start, the only program point naming it (the dynamic oracle records
   only the argument reads, so its accesses stay a subset of these);
   request variables are opaque handles outside the access universe. *)
let stmt_uses (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Decl (_, e) | Ast.Compute e | Ast.Print e | Ast.If (e, _, _)
  | Ast.While (e, _)
  | Ast.Omp_parallel { num_threads = Some e; _ } ->
      ([ e ], None)
  | Ast.Assign (x, e) -> ([ e ], Some x)
  | Ast.Send { value; dest; tag }
  | Ast.Istart { rop = Ast.Isend { value; dest; tag }; _ } ->
      ([ tag; dest; value ], None)
  | Ast.Recv { target; src; tag }
  | Ast.Istart { rop = Ast.Irecv { target; src; tag }; _ } ->
      ([ tag; src ], Some target)
  | Ast.Istart { rop = Ast.Iallreduce { target; value; _ }; _ } ->
      ([ value ], Some target)
  | Ast.Test { target; _ } -> ([], Some target)
  | Ast.For (_, lo, hi, _) | Ast.Omp_for { lo; hi; _ } -> ([ lo; hi ], None)
  | Ast.Coll (target, c) -> (coll_exprs c, target)
  | Ast.Call (_, args) -> (args, None)
  | Ast.Istart { rop = Ast.Ibarrier; _ }
  | Ast.Omp_parallel { num_threads = None; _ }
  | Ast.Return | Ast.Wait _ | Ast.Omp_single _ | Ast.Omp_master _
  | Ast.Omp_critical _ | Ast.Omp_barrier | Ast.Omp_sections _ | Ast.Check _ ->
      ([], None)

(* The accesses of [s] that resolve to storage declared outside the
   innermost enclosing [parallel] — shared by the team — in order: per
   expression its distinct variables in ascending order, then the
   write.  [node] is filled in when the statement is placed. *)
let stmt_shared_accesses env (s : Ast.stmt) =
  let shared x =
    match SMap.find_opt x env.bindings with
    | Some b when b.depth < env.pdepth -> Some b
    | Some _ | None -> None
  in
  let access ~write ~completion_write x b =
    {
      node = -1;
      var = x;
      decl_id = b.decl;
      write;
      loc = s.Ast.sloc;
      criticals = env.criticals;
      completion_write;
    }
  in
  let reads, target = stmt_uses s in
  let write =
    match target with
    | None -> []
    | Some x -> (
        match shared x with
        | None -> []
        | Some b ->
            let completion_write =
              match s.Ast.sdesc with Ast.Istart _ -> true | _ -> false
            in
            [ access ~write:true ~completion_write x b ])
  in
  List.fold_right
    (fun e acc ->
      List.fold_right
        (fun x acc ->
          match shared x with
          | None -> acc
          | Some b -> access ~write:false ~completion_write:false x b :: acc)
        (SSet.elements (expr_vars e))
        acc)
    reads write

(* The shared accesses of [f], in node order and per node in statement
   order.  One walk over the body replays the storage rules of the
   compiled interpreter ([lib/interp/compile.ml]): every [parallel] body
   opens one private frame per team member, so what is declared outside
   the innermost enclosing [parallel] is shared, and what is declared at
   or below it (loop variables and reduction copies included) is
   private.  Only statements under a [parallel] can touch shared storage;
   their accesses are kept by physical statement identity, then one scan
   of the graph places them at the reachable nodes that carry the
   statements.  The init/increment statements the CFG builder
   manufactures for counted loops are not in the body: the loop bounds
   are read at the loop's [Cond] node instead. *)
let shared_accesses ~(pword : Pword.t) (g : Cfg.Graph.t) (f : Ast.func) =
  let found = Ast.Stmt_tbl.create 16 in
  let next = ref 0 in
  let bind env x =
    let id = !next in
    incr next;
    {
      env with
      bindings =
        SMap.add x { decl = id; depth = env.pdepth } env.bindings;
    }
  in
  let rec stmt env (s : Ast.stmt) =
    (* A statement value the body holds twice keeps the accesses of its
       last occurrence. *)
    (if env.pdepth > 0 then
       match stmt_shared_accesses env s with
       | [] -> Ast.Stmt_tbl.remove found s
       | accs -> Ast.Stmt_tbl.replace found s accs
     else if Ast.Stmt_tbl.length found > 0 then Ast.Stmt_tbl.remove found s);
    match s.Ast.sdesc with
    | Ast.Decl (x, _) -> bind env x
    | Ast.If (_, bt, bf) ->
        block env bt;
        block env bf;
        env
    | Ast.While (_, body) | Ast.Omp_single { body; _ } | Ast.Omp_master body
      ->
        block env body;
        env
    | Ast.For (x, _, _, body) ->
        block (bind env x) body;
        env
    | Ast.Omp_parallel { body; _ } ->
        block { env with pdepth = env.pdepth + 1 } body;
        env
    | Ast.Omp_critical (name, body) ->
        let name = Option.value name ~default:anonymous_critical in
        block { env with criticals = name :: env.criticals } body;
        env
    | Ast.Omp_for { var; reduction; body; _ } ->
        (* The reduction clause remaps its variable to a per-member
           private accumulator for the loop body. *)
        let env_in =
          match reduction with None -> env | Some (_, x) -> bind env x
        in
        block (bind env_in var) body;
        env
    | Ast.Omp_sections { sections; _ } ->
        List.iter (block env) sections;
        env
    | Ast.Assign _ | Ast.Return | Ast.Call _ | Ast.Compute _ | Ast.Print _
    | Ast.Coll _ | Ast.Send _ | Ast.Recv _ | Ast.Istart _ | Ast.Wait _
    | Ast.Test _ | Ast.Omp_barrier | Ast.Check _ ->
        env
  and block env b = ignore (List.fold_left stmt env b) in
  let env0 = { pdepth = 0; criticals = []; bindings = SMap.empty } in
  block (List.fold_left bind env0 f.Ast.params) f.Ast.body;
  if Ast.Stmt_tbl.length found = 0 then [||]
  else begin
    let out = ref [] in
    let place id s =
      match Ast.Stmt_tbl.find_opt found s with
      | None -> ()
      | Some accs ->
          List.iter (fun a -> out := { a with node = id } :: !out) accs
    in
    Cfg.Graph.iter_nodes g (fun { Cfg.Graph.id; kind } ->
        match Pword.pw_opt pword id with
        | None -> () (* unreachable *)
        | Some _ -> (
            match kind with
            | Cfg.Graph.Simple stmts -> List.iter (place id) stmts
            | Cfg.Graph.Cond { stmt; _ }
            | Cfg.Graph.Collective { stmt; _ }
            | Cfg.Graph.Call_site { stmt; _ }
            | Cfg.Graph.Omp_begin
                { stmt = { Ast.sdesc = Ast.Omp_parallel _; _ } as stmt; _ } ->
                place id stmt
            | Cfg.Graph.Entry | Cfg.Graph.Exit | Cfg.Graph.Return_site _
            | Cfg.Graph.Omp_begin _ | Cfg.Graph.Omp_end _
            | Cfg.Graph.Barrier_node _ | Cfg.Graph.Check_site _ ->
                ()));
    Array.of_list (List.rev !out)
  end

(* ------------------------------------------------------------------ *)
(* Relevance: does the variable feed a collective or a conditional?    *)
(* ------------------------------------------------------------------ *)

(* Name-based backward closure over the function body: seed with the
   variables read by collective arguments and branch conditions, then
   pull in the right-hand sides of assignments to relevant variables
   until fixpoint.  Coarse (flow-insensitive) but only used to annotate
   warnings, never to drop a race. *)
let relevant_vars (f : Ast.func) =
  let seeds = ref SSet.empty in
  let assigns = ref [] in
  let add_seed e = seeds := SSet.union (expr_vars e) !seeds in
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
          let vs = expr_vars e in
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

let shares_critical (a1 : access) (a2 : access) =
  List.exists (fun c -> List.mem c a2.criticals) a1.criticals

let order_pair v a1 a2 ~feeds =
  if Loc.compare a1.loc a2.loc <= 0 then
    { pvar = v; a1; a2; feeds_collective = feeds }
  else { pvar = v; a1 = a2; a2 = a1; feeds_collective = feeds }

let analyze ?requests ~(pword : Pword.t) (g : Cfg.Graph.t) (f : Ast.func) :
    result =
  let accs = shared_accesses ~pword g f in
  let n = Array.length accs in
  if n = 0 then { wait_filtered = 0; pairs = [] }
  else
  let loopy = barrier_loopy g in
  let relevant = lazy (relevant_vars f) in
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
      if concurrent && not (shares_critical a1 a2) then
        if wait_ordered a1 a2 then incr wfiltered
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
  { wait_filtered = !wfiltered; pairs = List.rev !pairs }

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

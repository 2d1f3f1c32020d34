(** Generic iterative dataflow framework over {!Graph.t}, plus the classic
    analyses used by the compilation pipeline: liveness, reaching
    definitions, constant propagation, and the rank-taint analysis that the
    inter-process phase can use to filter conditionals that cannot actually
    diverge across MPI processes. *)

open Graph
module StringSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Expression helpers                                                  *)
(* ------------------------------------------------------------------ *)

let rec expr_vars acc (e : Minilang.Ast.expr) =
  match e with
  | Int _ | Bool _ | Rank | Size | Tid | Nthreads -> acc
  | Var x -> StringSet.add x acc
  | Unop (_, e) -> expr_vars acc e
  | Binop (_, a, b) -> expr_vars (expr_vars acc a) b

(* Expressions evaluated by a node, and variables it defines: the
   {!Minilang.Ast.stmt_uses} of the statements it carries.  A [Cond]
   node evaluates its own expression (a counted loop's test is
   manufactured by the builder); a worksharing loop's [Omp_begin] reads
   nothing (its bounds are read at the loop's nodes). *)
let node_uses g id =
  let open Minilang.Ast in
  match kind g id with
  | Simple stmts -> List.concat_map (fun s -> fst (stmt_uses s)) stmts
  | Cond { expr; _ } -> [ expr ]
  | Collective { coll; _ } -> coll_args coll
  | Call_site { args; _ } -> args
  | Omp_begin { stmt = { sdesc = Omp_parallel _; _ } as stmt; _ } ->
      fst (stmt_uses stmt)
  | Entry | Exit | Return_site _ | Barrier_node _ | Check_site _ | Omp_begin _
  | Omp_end _ ->
      []

let node_used_vars g id =
  List.fold_left expr_vars StringSet.empty (node_uses g id)

(** Variables assigned by the node, with the defining statement order
    collapsed (a [Simple] block may define several). *)
let node_defs g id =
  match kind g id with
  | Simple stmts ->
      List.fold_left
        (fun acc s ->
          match Minilang.Ast.stmt_uses s with
          | _, Some x -> StringSet.add x acc
          | _, None -> acc)
        StringSet.empty stmts
  | Collective { target = Some x; _ } -> StringSet.singleton x
  | _ -> StringSet.empty

(* ------------------------------------------------------------------ *)
(* Generic solver                                                      *)
(* ------------------------------------------------------------------ *)

type direction = Forward | Backward

(** [solve g dir ~equal ~join ~transfer ~init] computes, for every node,
    the pair (input fact, output fact) of the least fixpoint, where for a
    [Forward] analysis input is joined over predecessors and the root (the
    entry, or exit when [Backward]) receives [init].  [order], when
    given, is the worklist's seed order (the reverse postorder in the
    analysis direction, as a cached {!Actx} holds it). *)
let solve (type fact) ?order g dir ~(equal : fact -> fact -> bool)
    ~(join : fact -> fact -> fact) ~(transfer : int -> fact -> fact)
    ~(init : fact) ~(bottom : fact) =
  let n = nb_nodes g in
  let input = Array.make n bottom and output = Array.make n bottom in
  let root = match dir with Forward -> g.entry | Backward -> g.exit in
  let fold_prev, iter_next =
    match dir with
    | Forward -> (fold_preds g, iter_succs g)
    | Backward -> (fold_succs g, iter_preds g)
  in
  input.(root) <- init;
  output.(root) <- transfer root init;
  let worklist = Queue.create () in
  let queued = Array.make n false in
  let enqueue id =
    if not queued.(id) then begin
      queued.(id) <- true;
      Queue.add id worklist
    end
  in
  (* Seed with a deterministic order. *)
  let order =
    match (order, dir) with
    | Some order, _ -> order
    | None, Forward -> Traversal.rpo_array g
    | None, Backward -> Traversal.rpo_backward_array g
  in
  Array.iter enqueue order;
  while not (Queue.is_empty worklist) do
    let id = Queue.pop worklist in
    queued.(id) <- false;
    let in_fact =
      if id = root then init
      else fold_prev id (fun acc p -> join acc output.(p)) bottom
    in
    let out_fact = transfer id in_fact in
    input.(id) <- in_fact;
    if not (equal out_fact output.(id)) then begin
      output.(id) <- out_fact;
      iter_next id enqueue
    end
  done;
  (input, output)

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

(** Backward may-analysis: set of variables live at node entry/exit.
    Returns [(live_in, live_out)] indexed by node id; for a backward
    analysis [solve]'s "input" is the fact at node exit. *)
let liveness g =
  let transfer id fact =
    (* live_in = uses ∪ (live_out \ defs) *)
    StringSet.union (node_used_vars g id)
      (StringSet.diff fact (node_defs g id))
  in
  let out_facts, in_facts =
    solve g Backward ~equal:StringSet.equal ~join:StringSet.union ~transfer
      ~init:StringSet.empty ~bottom:StringSet.empty
  in
  (* solve's (input, output) for Backward are (fact-at-exit, fact-at-entry). *)
  (in_facts, out_facts)

(* ------------------------------------------------------------------ *)
(* Reaching definitions                                                *)
(* ------------------------------------------------------------------ *)

module DefSet = Set.Make (struct
  type t = string * int (* variable, defining node id *)

  let compare (x1, n1) (x2, n2) =
    let c = String.compare x1 x2 in
    if c <> 0 then c else Int.compare n1 n2
end)

(** Forward may-analysis: definitions (variable, node) reaching each
    node.  Returns [(reach_in, reach_out)]. *)
let reaching_definitions g =
  let transfer id fact =
    let defs = node_defs g id in
    if StringSet.is_empty defs then fact
    else
      let survives (x, _) = not (StringSet.mem x defs) in
      let kept = DefSet.filter survives fact in
      StringSet.fold (fun x acc -> DefSet.add (x, id) acc) defs kept
  in
  solve g Forward ~equal:DefSet.equal ~join:DefSet.union ~transfer
    ~init:DefSet.empty ~bottom:DefSet.empty

(* ------------------------------------------------------------------ *)
(* Constant propagation                                                *)
(* ------------------------------------------------------------------ *)

module ConstMap = Map.Make (String)

type const_value = Const of int | NonConst

(** A missing binding means "unknown yet" (bottom); join of [Const a] and
    [Const b] with [a <> b] is [NonConst]. *)
let const_join a b =
  ConstMap.union
    (fun _ va vb ->
      match (va, vb) with
      | Const x, Const y when x = y -> Some (Const x)
      | _ -> Some NonConst)
    a b

let const_equal = ConstMap.equal (fun a b -> a = b)

let rec eval_const env (e : Minilang.Ast.expr) =
  let open Minilang.Ast in
  match e with
  | Int n -> Some n
  | Bool b -> Some (if b then 1 else 0)
  | Var x -> (
      match ConstMap.find_opt x env with
      | Some (Const n) -> Some n
      | Some NonConst | None -> None)
  | Rank | Size | Tid | Nthreads -> None
  | Unop (Neg, e) -> Option.map (fun n -> -n) (eval_const env e)
  | Unop (Not, e) ->
      Option.map (fun n -> if n = 0 then 1 else 0) (eval_const env e)
  | Binop (op, a, b) -> (
      match (eval_const env a, eval_const env b) with
      | Some x, Some y -> (
          let bool_of b = if b then 1 else 0 in
          match op with
          | Add -> Some (x + y)
          | Sub -> Some (x - y)
          | Mul -> Some (x * y)
          | Div -> if y = 0 then None else Some (x / y)
          | Mod -> if y = 0 then None else Some (x mod y)
          | Eq -> Some (bool_of (x = y))
          | Ne -> Some (bool_of (x <> y))
          | Lt -> Some (bool_of (x < y))
          | Le -> Some (bool_of (x <= y))
          | Gt -> Some (bool_of (x > y))
          | Ge -> Some (bool_of (x >= y))
          | And -> Some (bool_of (x <> 0 && y <> 0))
          | Or -> Some (bool_of (x <> 0 || y <> 0)))
      | _ -> None)

(** Forward constant propagation.  Collective results and call effects are
    treated as non-constant.  Returns [(in_maps, out_maps)]. *)
let constant_propagation g =
  let open Minilang.Ast in
  let transfer id fact =
    match kind g id with
    | Simple stmts ->
        List.fold_left
          (fun env s ->
            match (s.sdesc, stmt_uses s) with
            | (Decl (x, e) | Assign (x, e)), _ -> (
                match eval_const env e with
                | Some n -> ConstMap.add x (Const n) env
                | None -> ConstMap.add x NonConst env)
            | _, (_, Some x) -> ConstMap.add x NonConst env
            | _, (_, None) -> env)
          fact stmts
    | Collective { target = Some x; _ } -> ConstMap.add x NonConst fact
    | _ -> fact
  in
  solve g Forward ~equal:const_equal ~join:const_join ~transfer
    ~init:ConstMap.empty ~bottom:ConstMap.empty

(* ------------------------------------------------------------------ *)
(* Available expressions                                               *)
(* ------------------------------------------------------------------ *)

module ExprSet = Set.Make (struct
  type t = Minilang.Ast.expr

  let compare = Stdlib.compare
end)

(* Non-trivial subexpressions of [e] (binary/unary applications). *)
let rec subexprs acc (e : Minilang.Ast.expr) =
  match e with
  | Int _ | Bool _ | Var _ | Rank | Size | Tid | Nthreads -> acc
  | Unop (_, a) -> subexprs (ExprSet.add e acc) a
  | Binop (_, a, b) -> subexprs (subexprs (ExprSet.add e acc) a) b

let node_exprs g id =
  List.fold_left subexprs ExprSet.empty (node_uses g id)

(* All candidate expressions of the graph, for the universal set. *)
let universe g =
  let u = ref ExprSet.empty in
  iter_nodes g (fun n -> u := ExprSet.union !u (node_exprs g n.id));
  !u

let expr_depends_on vars e =
  not (StringSet.is_empty (StringSet.inter vars (expr_vars StringSet.empty e)))

(** Forward must-analysis: expressions computed on every path and not
    killed since.  The classic enabling analysis for common-subexpression
    elimination; part of the baseline compilation pipeline.  Returns
    [(avail_in, avail_out)]. *)
let available_expressions g =
  let all = universe g in
  let kill x fact =
    ExprSet.filter (fun e -> not (expr_depends_on (StringSet.singleton x) e)) fact
  in
  let transfer id fact =
    match kind g id with
    | Simple stmts ->
        (* Statement order matters: [var c = a + b] generates [a + b]
           before killing the expressions that depend on [c]. *)
        List.fold_left
          (fun fact s ->
            let reads, target = Minilang.Ast.stmt_uses s in
            let fact = List.fold_left subexprs fact reads in
            match target with Some x -> kill x fact | None -> fact)
          fact stmts
    | _ ->
        let gen = node_exprs g id in
        let defs = node_defs g id in
        let kept =
          if StringSet.is_empty defs then fact
          else ExprSet.filter (fun e -> not (expr_depends_on defs e)) fact
        in
        let gen = ExprSet.filter (fun e -> not (expr_depends_on defs e)) gen in
        ExprSet.union gen kept
  in
  let equal = ExprSet.equal in
  let join a b = ExprSet.inter a b in
  (* Must-analysis: the bottom element is the full universe; the entry
     starts empty. *)
  solve g Forward ~equal ~join ~transfer ~init:ExprSet.empty ~bottom:all

(* ------------------------------------------------------------------ *)
(* Copy propagation                                                    *)
(* ------------------------------------------------------------------ *)

module CopyMap = Map.Make (String)

(** Forward must-analysis of copies [x := y]: at each point, which
    variables are known to hold the value of another variable.  Returns
    [(in_maps, out_maps)]; a binding [x ↦ y] means [x] can be replaced by
    [y]. *)
let copy_propagation g =
  let open Minilang.Ast in
  let kill x fact =
    CopyMap.filter (fun a b -> a <> x && b <> x) fact
  in
  let transfer id fact =
    match kind g id with
    | Simple stmts ->
        List.fold_left
          (fun env s ->
            match (s.sdesc, stmt_uses s) with
            | (Decl (x, Var y) | Assign (x, Var y)), _ when x <> y ->
                CopyMap.add x y (kill x env)
            | _, (_, Some x) -> kill x env
            | _, (_, None) -> env)
          fact stmts
    | Collective { target = Some x; _ } -> kill x fact
    | _ -> fact
  in
  (* Must-analysis over a finite map: [None] is the optimistic top element
     (for unvisited predecessors), so the join does not wrongly kill
     copies at loop headers. *)
  let equal = Option.equal (CopyMap.equal String.equal) in
  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b ->
        Some
          (CopyMap.merge
             (fun _ va vb ->
               match (va, vb) with
               | Some y1, Some y2 when String.equal y1 y2 -> Some y1
               | _ -> None)
             a b)
  in
  let transfer id fact = Option.map (transfer id) fact in
  let in_facts, out_facts =
    solve g Forward ~equal ~join ~transfer ~init:(Some CopyMap.empty)
      ~bottom:None
  in
  let unwrap = Array.map (Option.value ~default:CopyMap.empty) in
  (unwrap in_facts, unwrap out_facts)

(* ------------------------------------------------------------------ *)
(* Rank taint                                                          *)
(* ------------------------------------------------------------------ *)

(* Does [e] mention [rank()]/[omp_tid()] or a variable of [tainted]? *)
let rec expr_tainted tainted (e : Minilang.Ast.expr) =
  match e with
  | Rank | Tid -> true
  | Var x -> StringSet.mem x tainted
  | Int _ | Bool _ | Size | Nthreads -> false
  | Unop (_, e) -> expr_tainted tainted e
  | Binop (_, a, b) -> expr_tainted tainted a || expr_tainted tainted b

(** Forward taint analysis: which variables may carry a value that differs
    across MPI processes (or OpenMP threads)?  Sources are [rank()] and
    [omp_tid()].  Collective results are classified by symmetry: Bcast,
    Allreduce, Allgather and Alltoall produce replicated values (untainted);
    Reduce, Gather, Scatter and Scan results legitimately differ per rank
    (tainted).  Function parameters are conservatively tainted, since the
    analysis is intra-procedural.  [rpo] is the graph's reverse
    postorder. *)
let rank_taint ~rpo g ~params =
  let open Minilang.Ast in
  let transfer id fact =
    match kind g id with
    | Simple stmts ->
        List.fold_left
          (fun env s ->
            match s.sdesc with
            | Decl (x, e) | Assign (x, e) ->
                if expr_tainted env e then StringSet.add x env
                else StringSet.remove x env
            | Recv { target; _ } -> StringSet.add target env
            (* MPI_Test's flag depends on message timing, and a received
               buffer carries per-rank data: tainted.  An
               MPI_Iallreduce buffer holds the replicated reduction
               result once completed (stale reads before the wait are a
               lifecycle error reported separately): untainted, like
               blocking Allreduce. *)
            | Test { target; _ } -> StringSet.add target env
            | Istart { rop = Irecv { target; _ }; _ } ->
                StringSet.add target env
            | Istart { rop = Iallreduce { target; _ }; _ } ->
                StringSet.remove target env
            | _ -> env)
          fact stmts
    | Collective { target = Some x; coll; _ } -> (
        match coll with
        | Bcast _ | Allreduce _ | Allgather _ | Alltoall _ ->
            StringSet.remove x fact
        | Reduce _ | Gather _ | Scatter _ | Scan _ | Reduce_scatter _ ->
            StringSet.add x fact
        | Barrier -> fact)
    | _ -> fact
  in
  let init = StringSet.of_list params in
  solve ~order:rpo g Forward ~equal:StringSet.equal ~join:StringSet.union
    ~transfer ~init ~bottom:StringSet.empty

(** [cond_rank_dependent g ~params id] tells whether the condition of node
    [id] may evaluate differently on different processes/threads, according
    to the taint analysis.  Non-[Cond] nodes yield [false]. *)
let cond_rank_dependent ~rpo g ~params =
  let in_taint, _ = rank_taint ~rpo g ~params in
  fun id ->
    match kind g id with
    | Cond { expr; _ } -> expr_tainted in_taint.(id) expr
    | _ -> false

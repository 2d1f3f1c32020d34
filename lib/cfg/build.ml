(** Lowering of mini-language functions to control-flow graphs.

    Follows the paper's front-end conventions: straight-line statements are
    grouped into basic blocks, MPI collectives are isolated in their own
    nodes, OpenMP directives are put into separate nodes, and new nodes are
    added for the implicit thread barriers at the end of [parallel],
    [single], worksharing [for] and [sections] constructs (unless
    [nowait]).

    Statements following a [return] in the same block are dead and are not
    lowered. *)

open Minilang
open Graph

(* Accumulates straight-line statements until a control-relevant statement
   forces a flush. *)
type cursor = {
  g : builder;
  mutable current : int;  (* node new statements attach after *)
  mutable pending : Ast.stmt list;  (* reversed straight-line statements *)
  mutable alive : bool;  (* false after a return *)
}

let flush cur =
  match cur.pending with
  | [] -> ()
  | stmts ->
      let id = add_node cur.g (Simple (List.rev stmts)) in
      add_edge cur.g cur.current id;
      cur.pending <- [];
      cur.current <- id

(* Appends a fresh node of [kind] after the current position and makes it
   current. *)
let append cur kind =
  flush cur;
  let id = add_node cur.g kind in
  add_edge cur.g cur.current id;
  cur.current <- id;
  id

let rec build_block cur block =
  List.iter (fun s -> if cur.alive then build_stmt cur s) block

and build_stmt cur (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Decl _ | Assign _ | Compute _ | Print _ | Send _ | Recv _ | Istart _
  | Wait _ | Test _ ->
      (* Point-to-point calls are outside the collective-validation scope
         (the paper checks collectives only): plain statements here.
         Split-phase starts/completions also lower to [Simple] nodes — a
         start never blocks, and [Parcoach.Requests] locates completion
         points by statement, not by node kind. *)
      cur.pending <- s :: cur.pending
  | Return ->
      let _id = append cur (Return_site { stmt = s }) in
      add_edge cur.g cur.current exit_id;
      cur.alive <- false
  | Call (fname, args) -> ignore (append cur (Call_site { fname; args; stmt = s }))
  | Coll (target, coll) ->
      ignore (append cur (Collective { target; coll; stmt = s }))
  | Check check -> ignore (append cur (Check_site { check; stmt = s }))
  | If (expr, bt, bf) ->
      let c = append cur (Cond { expr; stmt = s }) in
      (* True branch. *)
      let t_end, t_alive =
        let sub = { cur with current = c; pending = []; alive = true } in
        build_block sub bt;
        flush sub;
        (sub.current, sub.alive)
      in
      (* False branch. *)
      let f_end, f_alive =
        let sub = { cur with current = c; pending = []; alive = true } in
        build_block sub bf;
        flush sub;
        (sub.current, sub.alive)
      in
      (* Cond successor order: the true branch must be first.  The true
         branch was built first so its first node (or the join) is already
         first in [succs]; when the true branch is empty both branches
         start at the join and order is irrelevant. *)
      let join = add_node cur.g (Simple []) in
      if t_alive then add_edge cur.g t_end join;
      if f_alive then add_edge cur.g f_end join;
      cur.current <- join;
      cur.alive <- t_alive || f_alive;
      if not cur.alive then (
        (* Both branches returned: connect the dead join to exit so every
           node keeps a path to exit (keeps post-dominance total). *)
        add_edge cur.g join exit_id;
        cur.alive <- false)
  | While (expr, body) ->
      flush cur;
      let c = append cur (Cond { expr; stmt = s }) in
      let sub = { cur with current = c; pending = []; alive = true } in
      build_block sub body;
      flush sub;
      if sub.alive then add_edge cur.g sub.current c;
      (* False branch: fall through after the loop. *)
      let after = add_node cur.g (Simple []) in
      add_edge cur.g c after;
      cur.current <- after
  | For (x, lo, hi, body) ->
      (* Desugared: var x = lo; while (x < hi) { body; x = x + 1; } *)
      let init = Ast.mk ~loc:s.Ast.sloc (Ast.Decl (x, lo)) in
      let incr =
        Ast.mk ~loc:s.Ast.sloc
          (Ast.Assign (x, Ast.Binop (Ast.Add, Ast.Var x, Ast.Int 1)))
      in
      let cond_expr = Ast.Binop (Ast.Lt, Ast.Var x, hi) in
      cur.pending <- init :: cur.pending;
      flush cur;
      let c = append cur (Cond { expr = cond_expr; stmt = s }) in
      let sub = { cur with current = c; pending = []; alive = true } in
      build_block sub body;
      if sub.alive then begin
        sub.pending <- incr :: sub.pending;
        flush sub;
        add_edge cur.g sub.current c
      end;
      let after = add_node cur.g (Simple []) in
      add_edge cur.g c after;
      cur.current <- after
  | Omp_barrier ->
      ignore (append cur (Barrier_node { implicit = false; loc = s.Ast.sloc }))
  | Omp_parallel { body; _ } ->
      build_region cur s Rparallel body ~implicit_barrier:true
  | Omp_single { nowait; body } ->
      build_region cur s (Rsingle { nowait }) body ~implicit_barrier:(not nowait)
  | Omp_master body -> build_region cur s Rmaster body ~implicit_barrier:false
  | Omp_critical (name, body) ->
      build_region cur s (Rcritical name) body ~implicit_barrier:false
  | Omp_for { var; lo; hi; nowait; reduction = _; body } ->
      (* The worksharing loop region wraps the loop control structure; the
         reduction clause is a data-environment detail with no effect on
         the graph. *)
      let b = append cur (Omp_begin { kind = Rfor { nowait }; stmt = s }) in
      let init = Ast.mk ~loc:s.Ast.sloc (Ast.Decl (var, lo)) in
      let incr =
        Ast.mk ~loc:s.Ast.sloc
          (Ast.Assign (var, Ast.Binop (Ast.Add, Ast.Var var, Ast.Int 1)))
      in
      let cond_expr = Ast.Binop (Ast.Lt, Ast.Var var, hi) in
      cur.pending <- [ init ];
      flush cur;
      let c = append cur (Cond { expr = cond_expr; stmt = s }) in
      let sub = { cur with current = c; pending = []; alive = true } in
      build_block sub body;
      if sub.alive then begin
        sub.pending <- incr :: sub.pending;
        flush sub;
        add_edge cur.g sub.current c
      end;
      let e =
        add_node cur.g
          (Omp_end { kind = Rfor { nowait }; region = b; stmt = s })
      in
      add_edge cur.g c e;
      cur.current <- e;
      if not nowait then
        ignore (append cur (Barrier_node { implicit = true; loc = s.Ast.sloc }))
  | Omp_sections { nowait; sections } ->
      let b = append cur (Omp_begin { kind = Rsections { nowait }; stmt = s }) in
      let e =
        add_node cur.g
          (Omp_end { kind = Rsections { nowait }; region = b; stmt = s })
      in
      List.iter
        (fun section ->
          let sb = add_node cur.g (Omp_begin { kind = Rsection; stmt = s }) in
          add_edge cur.g b sb;
          let sub = { cur with current = sb; pending = []; alive = true } in
          build_block sub section;
          flush sub;
          let se =
            add_node cur.g (Omp_end { kind = Rsection; region = sb; stmt = s })
          in
          add_edge cur.g sub.current se;
          add_edge cur.g se e)
        sections;
      if sections = [] then add_edge cur.g b e;
      cur.current <- e;
      if not nowait then
        ignore (append cur (Barrier_node { implicit = true; loc = s.Ast.sloc }))

and build_region cur stmt kind body ~implicit_barrier =
  let b = append cur (Omp_begin { kind; stmt }) in
  let sub = { cur with current = b; pending = []; alive = true } in
  build_block sub body;
  flush sub;
  let e = add_node cur.g (Omp_end { kind; region = b; stmt }) in
  add_edge cur.g sub.current e;
  cur.current <- e;
  if implicit_barrier then
    ignore (append cur (Barrier_node { implicit = true; loc = stmt.Ast.sloc }))

(** Build the CFG of one function. *)
let of_func (f : Ast.func) =
  let g = builder f.Ast.fname in
  let entry = add_node g Entry in
  let exit = add_node g Exit in
  assert (entry = entry_id && exit = exit_id);
  let cur = { g; current = entry; pending = []; alive = true } in
  build_block cur f.Ast.body;
  flush cur;
  if cur.alive then add_edge g cur.current exit;
  finish g

(** Build the CFG of every function of a program, in source order. *)
let of_program (p : Ast.program) = List.map of_func p.Ast.funcs

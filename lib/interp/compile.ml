(** One-shot lowering of a validated [Ast.program] into the resolved form
    the simulator executes ({!Sim.run_compiled}).

    The lowering resolves, once per program, everything an AST
    tree-walker would recompute on every step of every replay:

    - {b Variables} become integer slots in per-frame [int array]s.  Scope
      analysis runs here: a fresh frame level opens per function
      activation and per [parallel] team member; every other construct
      allocates flat slots in the current frame.  OpenMP shared-by-default
      falls out of the frame chain — a team member's frame points [up] at
      the forker's frame, so outer variables are shared storage while
      declarations inside the parallel body land in the member's own
      frame.  Privatized variables (loop indices, [reduction] private
      copies) get fresh slots.
    - {b Sites and uids} ([Loc.to_string], a canonical statement
      numbering drawn from a counter in AST order, pre-rendered CC-check
      site strings) are computed exactly once, never per replay.
    - {b Callees, collective descriptors and reduction operators} are
      resolved to direct pointers/values; call errors (unknown function,
      arity) become pre-rendered error statements so dead code still
      fails only when executed.
    - {b Expressions} are closure-compiled: evaluation does no constructor
      dispatch on [Ast.expr].

    For state fingerprints, each program point also carries its scope:
    the locations of the variables visible there, in declaration order,
    whose values the fingerprint hashes next to the point's statement
    uid (see docs/PERFORMANCE.md, "The fingerprint contract").  Scopes
    are extended as declarations are compiled, never rebuilt. *)

open Minilang

(* ------------------------------------------------------------------ *)
(* Runtime representation                                              *)
(* ------------------------------------------------------------------ *)

(** A frame is one level of mutable variable storage.  [up] points at the
    lexically enclosing frame (the forker's frame, for a team member);
    root frames (function activations) point at a dummy. *)
type frame = { slots : int array; up : frame; mutable fid : int }

let rec dummy_frame = { slots = [||]; up = dummy_frame; fid = -1 }

let root_frame ?(fid = -1) nslots =
  { slots = Array.make nslots 0; up = dummy_frame; fid }

let child_frame ?(fid = -1) ~parent nslots =
  { slots = Array.make nslots 0; up = parent; fid }

let rec up fr n = if n <= 0 then fr else up fr.up (n - 1)

(** A resolved storage location: collective result cells, reduction
    accumulators. *)
type loc = { l_frame : frame; l_slot : int }

let read_loc l = l.l_frame.slots.(l.l_slot)

let write_loc l v = l.l_frame.slots.(l.l_slot) <- v

(** Per-task constants threaded into compiled expressions (the compiled
    counterpart of [rank()]/[size()]/[omp_tid()]/[omp_nthreads()]). *)
type ectx = { e_rank : int; e_tid : int; e_nthreads : int; e_nranks : int }

(** Raised by compiled code on evaluation errors; the driver converts it
    to [Fault (Eval_error _)]. *)
exception Error of { rank : int; site : string; message : string }

let error ec site fmt =
  Printf.ksprintf
    (fun message -> raise (Error { rank = ec.e_rank; site; message }))
    fmt

(** A compiled expression: evaluates against the task constants and the
    current frame. *)
type exprc = ectx -> frame -> int

(** Resolved variable reference: [v_hops] frames up, slot [v_slot]. *)
type vref = { v_hops : int; v_slot : int }

(** A reference that may be statically unbound: the error fires at
    execution time, not at compile time, so unreached code stays
    harmless. *)
type cell_ref = CRef of vref | CUnbound of string

(** The variables visible at a program point, in declaration order. *)
type scope = vref array

(** A resolved variable access a statement performs, kept alongside the
    compiled closures for the dynamic race oracle ({!Raceck}): the
    closures cannot be introspected, so the lowering records, per
    statement, which frame slots its expressions read and which slot its
    effect writes.  [a_hops]/[a_slot] are relative to the frame the
    statement executes against. *)
type access = { a_name : string; a_hops : int; a_slot : int; a_write : bool }

(* ------------------------------------------------------------------ *)
(* Compiled program form                                               *)
(* ------------------------------------------------------------------ *)

type cstmt = { uid : int; site : string; acc : access array; desc : cdesc }

and cblock = {
  stmts : cstmt array;
  scopes : scope array;
      (** [n + 1] entries: visible bindings before statement [i].
          Positions not following a declaration share the same physical
          array. *)
}

and cdesc =
  | CDecl of int * exprc  (** Write the initializer into a fresh slot. *)
  | CAssign of vref * exprc
  | CAssign_unbound of string * exprc
      (** Evaluate the value, then fail. *)
  | CIf of exprc * cblock * cblock
  | CWhile of {
      cond : exprc;
      scope : scope;
      cacc : access array;
          (** Reads of the condition, re-recorded at every loop-back
              re-evaluation (the statement's own [acc] covers the first
              evaluation). *)
      body : cblock;
    }
  | CFor of {
      slot : int;
      lo : exprc;
      hi : exprc;
      scope : scope;  (** Bindings at the construct (loop var excluded). *)
      body : cblock;
    }
  | CReturn
  | CCall of { target : cfunc; args : exprc array }
  | CCall_error of string  (** Pre-rendered undefined/arity message. *)
  | CCompute of exprc
  | CPrint of exprc
  | CColl of { target : cell_ref option; coll : ccoll }
  | CCheck of ccheck
  | CSend of { value : exprc; dest : exprc; tag : exprc }
  | CRecv of { target : cell_ref; src : exprc; tag : exprc }
  | CIstart of { rslot : int; rop : crop }
      (** Split-phase start: performs the operation's posting half and
          writes the fresh request id into [rslot] (the request variable
          is an ordinary slot holding the id — the validator guarantees
          only [MPI_Wait]/[MPI_Test] ever name it). *)
  | CWait of { req : cell_ref }
  | CTest of { target : cell_ref; req : cell_ref }
  | CPar of { num_threads : exprc option; nslots : int; body : cblock }
      (** [nslots]: size of each team member's private frame. *)
  | CSingle of { nowait : bool; body : cblock }
  | CMaster of cblock
  | CCritical of { name : string; body : cblock }
  | CBarrier
  | CWsfor of {
      slot : int;
      lo : exprc;
      hi : exprc;
      nowait : bool;
      reduction : creduction option;
      kscope : scope;
          (** Scope of the loop continuation: construct bindings plus the
              reduction remap (private slot shadows the shared variable),
              loop var excluded. *)
      body : cblock;
    }
  | CSections of { nowait : bool; sections : cblock array }

and crop =
  | KIbarrier
  | KIallreduce of { op : Mpisim.Op.t; target : cell_ref; value : exprc }
  | KIsend of { value : exprc; dest : exprc; tag : exprc }
  | KIrecv of { target : cell_ref; src : exprc; tag : exprc }

and creduction = {
  r_op : Ast.reduce_op;
  r_shared : cell_ref;
  r_priv_slot : int;
}

and ccoll = {
  k_kind : Mpisim.Coll.kind;
  k_op : Mpisim.Op.t option;
  k_root : exprc option;  (** Range check baked into the closure. *)
  k_payload : exprc;
}

and ccheck =
  | KCc_next of { color : int; csite : string }
  | KCc_return of { csite : string }
  | KAssert_mono
  | KCount_enter of int
  | KCount_exit of int

and cfunc = {
  f_name : string;
  f_nparams : int;
  mutable f_nslots : int;  (** Frame size of one activation. *)
  mutable f_body : cblock;
}

type t = { funcs : cfunc array; by_name : (string, cfunc) Hashtbl.t }

(** Callee lookup; first match wins on duplicate names, mirroring
    [Ast.find_func]. *)
let find t name = Hashtbl.find_opt t.by_name name

let op_of_ast = function
  | Ast.Rsum -> Mpisim.Op.Sum
  | Ast.Rprod -> Mpisim.Op.Prod
  | Ast.Rmax -> Mpisim.Op.Max
  | Ast.Rmin -> Mpisim.Op.Min
  | Ast.Rland -> Mpisim.Op.Land
  | Ast.Rlor -> Mpisim.Op.Lor

(* ------------------------------------------------------------------ *)
(* Compile-time environment                                            *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

type binding = { b_level : int; b_slot : int }

(* [counter] allocates slots of the innermost frame; a new level (with a
   fresh counter) opens per function body and per [parallel] body.
   [scope] holds the visible bindings of [vars] in declaration order,
   relative to [level]: it is built as declarations happen, so a block
   entry or a loop reuses it as it is. *)
type cenv = {
  vars : binding SMap.t;
  level : int;
  counter : int ref;
  scope : scope;
}

let alloc cenv =
  let s = !(cenv.counter) in
  incr cenv.counter;
  s

(* Bind [x] to [slot] of the innermost frame.  A shadowed binding of [x]
   (an outer one, or an earlier declaration in the same block) leaves the
   scope; the new one joins it at the end. *)
let declare cenv x slot =
  let visible =
    match SMap.find_opt x cenv.vars with
    | None -> cenv.scope
    | Some b ->
        let shadowed = { v_hops = cenv.level - b.b_level; v_slot = b.b_slot } in
        Array.of_list
          (List.filter (fun v -> v <> shadowed) (Array.to_list cenv.scope))
  in
  {
    cenv with
    vars = SMap.add x { b_level = cenv.level; b_slot = slot } cenv.vars;
    scope = Array.append visible [| { v_hops = 0; v_slot = slot } |];
  }

(* The environment of a [parallel] body: a new frame level, so every
   visible binding is one more hop away. *)
let enter_team cenv =
  {
    cenv with
    level = cenv.level + 1;
    counter = ref 0;
    scope = Array.map (fun v -> { v with v_hops = v.v_hops + 1 }) cenv.scope;
  }

let find_var cenv x =
  match SMap.find_opt x cenv.vars with
  | None -> None
  | Some b -> Some { v_hops = cenv.level - b.b_level; v_slot = b.b_slot }

let cell_of cenv x =
  match find_var cenv x with Some vr -> CRef vr | None -> CUnbound x

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* Left operand first, short-circuit [&&]/[||] normalising to 0/1 via
   [min 1 (abs _)], division/modulo checks after both operands. *)
let rec compile_expr cenv ~site (e : Ast.expr) : exprc =
  match e with
  | Ast.Int n -> fun _ _ -> n
  | Ast.Bool b ->
      let v = if b then 1 else 0 in
      fun _ _ -> v
  | Ast.Var x -> (
      match find_var cenv x with
      | Some { v_hops = 0; v_slot } -> fun _ fr -> fr.slots.(v_slot)
      | Some { v_hops = 1; v_slot } -> fun _ fr -> fr.up.slots.(v_slot)
      | Some { v_hops; v_slot } -> fun _ fr -> (up fr v_hops).slots.(v_slot)
      | None -> fun ec _ -> error ec site "unbound variable '%s'" x)
  | Ast.Rank -> fun ec _ -> ec.e_rank
  | Ast.Size -> fun ec _ -> ec.e_nranks
  | Ast.Tid -> fun ec _ -> ec.e_tid
  | Ast.Nthreads -> fun ec _ -> ec.e_nthreads
  | Ast.Unop (Ast.Neg, e) ->
      let f = compile_expr cenv ~site e in
      fun ec fr -> -f ec fr
  | Ast.Unop (Ast.Not, e) ->
      let f = compile_expr cenv ~site e in
      fun ec fr -> if f ec fr = 0 then 1 else 0
  | Ast.Binop (op, a, b) -> (
      let fa = compile_expr cenv ~site a in
      let fb = compile_expr cenv ~site b in
      match op with
      | Ast.And ->
          fun ec fr -> if fa ec fr = 0 then 0 else Int.min 1 (abs (fb ec fr))
      | Ast.Or ->
          fun ec fr -> if fa ec fr <> 0 then 1 else Int.min 1 (abs (fb ec fr))
      | Ast.Add ->
          fun ec fr ->
            let x = fa ec fr in
            x + fb ec fr
      | Ast.Sub ->
          fun ec fr ->
            let x = fa ec fr in
            x - fb ec fr
      | Ast.Mul ->
          fun ec fr ->
            let x = fa ec fr in
            x * fb ec fr
      | Ast.Div ->
          fun ec fr ->
            let x = fa ec fr in
            let y = fb ec fr in
            if y = 0 then error ec site "division by zero" else x / y
      | Ast.Mod ->
          fun ec fr ->
            let x = fa ec fr in
            let y = fb ec fr in
            if y = 0 then error ec site "modulo by zero" else x mod y
      | Ast.Eq ->
          fun ec fr ->
            let x = fa ec fr in
            if x = fb ec fr then 1 else 0
      | Ast.Ne ->
          fun ec fr ->
            let x = fa ec fr in
            if x <> fb ec fr then 1 else 0
      | Ast.Lt ->
          fun ec fr ->
            let x = fa ec fr in
            if x < fb ec fr then 1 else 0
      | Ast.Le ->
          fun ec fr ->
            let x = fa ec fr in
            if x <= fb ec fr then 1 else 0
      | Ast.Gt ->
          fun ec fr ->
            let x = fa ec fr in
            if x > fb ec fr then 1 else 0
      | Ast.Ge ->
          fun ec fr ->
            let x = fa ec fr in
            if x >= fb ec fr then 1 else 0)

let compile_root cenv ~site e =
  let f = compile_expr cenv ~site e in
  fun ec fr ->
    let r = f ec fr in
    if r < 0 || r >= ec.e_nranks then
      error ec site "collective root %d out of range" r
    else r

(* Payload compiled separately from root; the executor evaluates payload
   first, then root. *)
let compile_coll cenv ~site (c : Ast.collective) : ccoll =
  let ev e = compile_expr cenv ~site e in
  let root e = Some (compile_root cenv ~site e) in
  let mk k_kind ?op ?(rt = None) value =
    { k_kind; k_op = op; k_root = rt; k_payload = value }
  in
  match c with
  | Ast.Barrier -> mk Mpisim.Coll.Barrier (fun _ _ -> 0)
  | Ast.Bcast { root = r; value } -> mk Mpisim.Coll.Bcast ~rt:(root r) (ev value)
  | Ast.Reduce { op; root = r; value } ->
      mk Mpisim.Coll.Reduce ~op:(op_of_ast op) ~rt:(root r) (ev value)
  | Ast.Allreduce { op; value } ->
      mk Mpisim.Coll.Allreduce ~op:(op_of_ast op) (ev value)
  | Ast.Gather { root = r; value } ->
      mk Mpisim.Coll.Gather ~rt:(root r) (ev value)
  | Ast.Scatter { root = r; value } ->
      mk Mpisim.Coll.Scatter ~rt:(root r) (ev value)
  | Ast.Allgather { value } -> mk Mpisim.Coll.Allgather (ev value)
  | Ast.Alltoall { value } -> mk Mpisim.Coll.Alltoall (ev value)
  | Ast.Scan { op; value } -> mk Mpisim.Coll.Scan ~op:(op_of_ast op) (ev value)
  | Ast.Reduce_scatter { op; value } ->
      mk Mpisim.Coll.Reduce_scatter ~op:(op_of_ast op) (ev value)

(* ------------------------------------------------------------------ *)
(* Access descriptors                                                  *)
(* ------------------------------------------------------------------ *)

(* Slot reads of an expression, in evaluation order.  Unbound variables
   are omitted: evaluation faults before any storage access happens. *)
let rec expr_reads cenv acc (e : Ast.expr) =
  match e with
  | Ast.Var x -> (
      match find_var cenv x with
      | Some { v_hops; v_slot } ->
          { a_name = x; a_hops = v_hops; a_slot = v_slot; a_write = false }
          :: acc
      | None -> acc)
  | Ast.Unop (_, e) -> expr_reads cenv acc e
  | Ast.Binop (_, a, b) -> expr_reads cenv (expr_reads cenv acc a) b
  | Ast.Int _ | Ast.Bool _ | Ast.Rank | Ast.Size | Ast.Tid | Ast.Nthreads ->
      acc

let reads_of cenv es =
  List.rev (List.fold_left (expr_reads cenv) [] es)

let write_of cenv x =
  match find_var cenv x with
  | Some { v_hops; v_slot } ->
      [ { a_name = x; a_hops = v_hops; a_slot = v_slot; a_write = true } ]
  | None -> []

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

type ctx = { next_uid : int ref; resolve : string -> cfunc option }

(* Canonical uids, numbered by a counter in the lowering walk, which is in
   AST order (statement before its sub-blocks; [If] then-branch first;
   sections in order), so they are the same in every run of the program:
   [single]-arbitration keys and fingerprints are comparable across
   schedules.  Every statement position gets its own uid. *)
let new_uid ctx =
  let u = !(ctx.next_uid) in
  incr ctx.next_uid;
  u

let dummy_cstmt = { uid = -1; site = "<dummy>"; acc = [||]; desc = CBarrier }

let empty_cblock = { stmts = [||]; scopes = [| [||] |] }

let rec compile_stmt ctx cenv (s : Ast.stmt) : cstmt * cenv =
  let uid = new_uid ctx in
  let site = Loc.to_string s.Ast.sloc in
  let ev e = compile_expr cenv ~site e in
  (* The recorded accesses: the statement's {!Ast.stmt_uses}, reads then
     write, minus two writes.  A declaration targets storage no
     concurrently-running task can resolve (as do the loop-variable,
     reduction and parameter writes, which no statement names).  A
     split-phase buffer is written at completion, not at the start:
     recording it here would let the dynamic oracle report races that
     the static pass discharges at the wait, breaking dynamic ⊆ static.
     A call that cannot resolve faults before evaluating its arguments
     and records nothing. *)
  let acc =
    let reads, target = Ast.stmt_uses s in
    let w =
      match (s.Ast.sdesc, target) with
      | (Ast.Decl _ | Ast.Istart _), _ | _, None -> []
      | _, Some x -> write_of cenv x
    in
    Array.of_list (reads_of cenv reads @ w)
  in
  let ret ?(acc = acc) desc = ({ uid; site; acc; desc }, cenv) in
  match s.Ast.sdesc with
  | Ast.Decl (x, e) ->
      let value = ev e in
      let slot = alloc cenv in
      ({ uid; site; acc; desc = CDecl (slot, value) }, declare cenv x slot)
  | Ast.Assign (x, e) -> (
      let value = ev e in
      match find_var cenv x with
      | Some vr -> ret (CAssign (vr, value))
      | None -> ret (CAssign_unbound (x, value)))
  | Ast.If (c, bt, bf) ->
      let cond = ev c in
      let bt = compile_block ctx cenv bt in
      let bf = compile_block ctx cenv bf in
      ret (CIf (cond, bt, bf))
  | Ast.While (c, body) ->
      let cond = ev c in
      ret
        (CWhile
           {
             cond;
             scope = cenv.scope;
             cacc = acc;
             body = compile_block ctx cenv body;
           })
  | Ast.For (x, lo, hi, body) ->
      let lo = ev lo in
      let hi = ev hi in
      let slot = alloc cenv in
      let body = compile_block ctx (declare cenv x slot) body in
      ret (CFor { slot; lo; hi; scope = cenv.scope; body })
  | Ast.Return -> ret CReturn
  | Ast.Call (fname, args) -> (
      match ctx.resolve fname with
      | None ->
          ret ~acc:[||]
            (CCall_error (Printf.sprintf "undefined function '%s'" fname))
      | Some target ->
          if target.f_nparams <> List.length args then
            ret ~acc:[||]
              (CCall_error (Printf.sprintf "arity mismatch calling '%s'" fname))
          else
            ret (CCall { target; args = Array.of_list (List.map ev args) }))
  | Ast.Compute e -> ret (CCompute (ev e))
  | Ast.Print e -> ret (CPrint (ev e))
  | Ast.Coll (target, c) ->
      ret
        (CColl
           {
             target = Option.map (cell_of cenv) target;
             coll = compile_coll cenv ~site c;
           })
  | Ast.Check check ->
      ret
        (CCheck
           (match check with
           | Ast.Cc_next_collective { color; coll_name } ->
               KCc_next
                 {
                   color;
                   csite = String.concat "" [ site; " (next: "; coll_name; ")" ];
                 }
           | Ast.Cc_return ->
               KCc_return { csite = site ^ " (function exit)" }
           | Ast.Assert_monothread _ -> KAssert_mono
           | Ast.Count_enter { region } -> KCount_enter region
           | Ast.Count_exit { region } -> KCount_exit region))
  | Ast.Send { value; dest; tag } ->
      ret (CSend { value = ev value; dest = ev dest; tag = ev tag })
  | Ast.Recv { target; src; tag } ->
      ret
        (CRecv { target = cell_of cenv target; src = ev src; tag = ev tag })
  | Ast.Istart { req; rop } ->
      let rop =
        match rop with
        | Ast.Ibarrier -> KIbarrier
        | Ast.Iallreduce { op; target; value } ->
            KIallreduce
              {
                op = op_of_ast op;
                target = cell_of cenv target;
                value = ev value;
              }
        | Ast.Isend { value; dest; tag } ->
            KIsend { value = ev value; dest = ev dest; tag = ev tag }
        | Ast.Irecv { target; src; tag } ->
            KIrecv { target = cell_of cenv target; src = ev src; tag = ev tag }
      in
      let slot = alloc cenv in
      ({ uid; site; acc; desc = CIstart { rslot = slot; rop } },
       declare cenv req slot)
  | Ast.Wait { req } -> ret (CWait { req = cell_of cenv req })
  | Ast.Test { target; req } ->
      ret (CTest { target = cell_of cenv target; req = cell_of cenv req })
  | Ast.Omp_parallel { num_threads; body } ->
      let num_threads = Option.map ev num_threads in
      (* Team members get a private child frame: outer bindings stay
         visible (shared) one hop up; body declarations are private. *)
      let team = enter_team cenv in
      let body = compile_block ctx team body in
      ret (CPar { num_threads; nslots = !(team.counter); body })
  | Ast.Omp_single { nowait; body } ->
      ret (CSingle { nowait; body = compile_block ctx cenv body })
  | Ast.Omp_master body -> ret (CMaster (compile_block ctx cenv body))
  | Ast.Omp_critical (name, body) ->
      let name = Option.value name ~default:Ompsim.Critical.anonymous in
      ret (CCritical { name; body = compile_block ctx cenv body })
  | Ast.Omp_barrier -> ret CBarrier
  | Ast.Omp_for { var; lo; hi; nowait; reduction; body } ->
      let lo = ev lo in
      let hi = ev hi in
      let reduction, cenv_in =
        match reduction with
        | None -> (None, cenv)
        | Some (op, x) ->
            let r_shared = cell_of cenv x in
            let r_priv_slot = alloc cenv in
            ( Some { r_op = op; r_shared; r_priv_slot },
              declare cenv x r_priv_slot )
      in
      let slot = alloc cenv in
      let body = compile_block ctx (declare cenv_in var slot) body in
      ret
        (CWsfor
           { slot; lo; hi; nowait; reduction; kscope = cenv_in.scope; body })
  | Ast.Omp_sections { nowait; sections } ->
      ret
        (CSections
           {
             nowait;
             sections =
               Array.of_list (List.map (compile_block ctx cenv) sections);
           })

and compile_block ctx cenv0 (b : Ast.block) : cblock =
  let n = List.length b in
  let stmts = Array.make n dummy_cstmt in
  let scopes = Array.make (n + 1) [||] in
  let cenv = ref cenv0 in
  List.iteri
    (fun i s ->
      (* Only declarations change the scope: positions between them share
         the same physical array. *)
      scopes.(i) <- (!cenv).scope;
      let cs, cenv' = compile_stmt ctx !cenv s in
      stmts.(i) <- cs;
      cenv := cenv')
    b;
  scopes.(n) <- (!cenv).scope;
  { stmts; scopes }

(* ------------------------------------------------------------------ *)
(* Program lowering                                                    *)
(* ------------------------------------------------------------------ *)

let lower (program : Ast.program) : t =
  let pairs =
    List.map
      (fun (f : Ast.func) ->
        ( f,
          {
            f_name = f.Ast.fname;
            f_nparams = List.length f.Ast.params;
            f_nslots = 0;
            f_body = empty_cblock;
          } ))
      program.Ast.funcs
  in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun ((_ : Ast.func), cf) ->
      if not (Hashtbl.mem by_name cf.f_name) then Hashtbl.add by_name cf.f_name cf)
    pairs;
  let ctx =
    { next_uid = ref 0; resolve = (fun name -> Hashtbl.find_opt by_name name) }
  in
  (* Two passes: records first so call sites (including mutual recursion)
     resolve to their callee directly; bodies second, in program order, so
     uids follow the AST order. *)
  List.iter
    (fun ((f : Ast.func), cf) ->
      let counter = ref 0 in
      let cenv = { vars = SMap.empty; level = 0; counter; scope = [||] } in
      (* Parameters take slots 0..n-1, in declaration order (duplicates
         keep distinct slots; the last binding wins). *)
      let cenv =
        List.fold_left
          (fun ce p ->
            let slot = alloc ce in
            declare ce p slot)
          cenv f.Ast.params
      in
      cf.f_body <- compile_block ctx cenv f.Ast.body;
      cf.f_nslots <- !counter)
    pairs;
  { funcs = Array.of_list (List.map snd pairs); by_name }

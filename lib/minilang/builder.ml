(** Combinators for building mini-language programs programmatically.

    Used by the benchmark-suite generators and by tests.  Locations default
    to {!Loc.builder}; [at] attaches a synthetic line number so analyses
    can still report distinct call sites for generated programs. *)

open Ast

(* Expressions ------------------------------------------------------- *)

let i n = Int n

let b v = Bool v

let v x = Var x

let rank = Rank

let size = Size

let tid = Tid

let nthreads = Nthreads

(* Expression operators use a ':' suffix so the Stdlib integer operators
   stay available in generator code that opens this module. *)

let ( +: ) a b = Binop (Add, a, b)

let ( -: ) a b = Binop (Sub, a, b)

let ( *: ) a b = Binop (Mul, a, b)

let ( /: ) a b = Binop (Div, a, b)

let ( %: ) a b = Binop (Mod, a, b)

let ( ==: ) a b = Binop (Eq, a, b)

let ( !=: ) a b = Binop (Ne, a, b)

let ( <: ) a b = Binop (Lt, a, b)

let ( <=: ) a b = Binop (Le, a, b)

let ( >: ) a b = Binop (Gt, a, b)

let ( >=: ) a b = Binop (Ge, a, b)

let ( &&: ) a b = Binop (And, a, b)

let ( ||: ) a b = Binop (Or, a, b)

(* Statements -------------------------------------------------------- *)

let mk = Ast.mk

(** [at line s] re-locates statement [s] at synthetic line [line]. *)
let at line s = { s with sloc = Loc.make ~file:"<builder>" ~line ~col:1 }

let decl x e = mk (Decl (x, e))

let assign x e = mk (Assign (x, e))

let if_ c bt bf = mk (If (c, bt, bf))

let while_ c body = mk (While (c, body))

let for_ x lo hi body = mk (For (x, lo, hi, body))

let return = mk Return

let call f args = mk (Call (f, args))

let compute e = mk (Compute e)

let print e = mk (Print e)

(* Collectives ------------------------------------------------------- *)

let coll ?target c = mk (Coll (target, c))

let barrier () = coll Barrier

let bcast ?target ~root value = coll ?target (Bcast { root; value })

let reduce ?target ~op ~root value = coll ?target (Reduce { op; root; value })

let allreduce ?target ~op value = coll ?target (Allreduce { op; value })

let gather ?target ~root value = coll ?target (Gather { root; value })

let scatter ?target ~root value = coll ?target (Scatter { root; value })

let allgather ?target value = coll ?target (Allgather { value })

let alltoall ?target value = coll ?target (Alltoall { value })

let scan ?target ~op value = coll ?target (Scan { op; value })

let reduce_scatter ?target ~op value =
  coll ?target (Reduce_scatter { op; value })

(* Point-to-point *)

let send ~dest ?(tag = Int 0) value = mk (Send { value; dest; tag })

let recv ~target ~src ?(tag = Int 0) () = mk (Recv { target; src; tag })

(* Split-phase (nonblocking) operations *)

let istart req rop = mk (Istart { req; rop })

let ibarrier req = istart req Ibarrier

let iallreduce req ~target ~op value =
  istart req (Iallreduce { op; target; value })

let isend req ~dest ?(tag = Int 0) value = istart req (Isend { value; dest; tag })

let irecv req ~target ~src ?(tag = Int 0) () =
  istart req (Irecv { target; src; tag })

let wait req = mk (Wait { req })

let test ~target req = mk (Test { target; req })

(* OpenMP ------------------------------------------------------------ *)

let parallel ?num_threads body = mk (Omp_parallel { num_threads; body })

let single ?(nowait = false) body = mk (Omp_single { nowait; body })

let master body = mk (Omp_master body)

let critical ?name body = mk (Omp_critical (name, body))

let omp_barrier = mk Omp_barrier

let omp_for ?(nowait = false) ?reduction x lo hi body =
  mk (Omp_for { var = x; lo; hi; nowait; reduction; body })

let sections ?(nowait = false) sections_list =
  mk (Omp_sections { nowait; sections = sections_list })

(* Functions and programs -------------------------------------------- *)

let func ?(params = []) fname body = { fname; params; body; floc = Loc.builder }

let program funcs = { funcs }

(** [number_lines p] assigns each statement a distinct synthetic line
    number (depth-first order), so that warnings on generated programs can
    name distinct sites.  Statements that already carry a real location are
    left untouched. *)
let number_lines program =
  let counter = ref 0 in
  let next () =
    incr counter;
    !counter
  in
  let rec on_block block = List.map on_stmt block
  and on_stmt s =
    let s =
      if Loc.is_none s.sloc || String.equal s.sloc.Loc.file "<builder>" then
        { s with sloc = Loc.make ~file:"<builder>" ~line:(next ()) ~col:1 }
      else s
    in
    let sdesc =
      match s.sdesc with
      | If (c, bt, bf) -> If (c, on_block bt, on_block bf)
      | While (c, b) -> While (c, on_block b)
      | For (x, lo, hi, b) -> For (x, lo, hi, on_block b)
      | Omp_parallel { num_threads; body } ->
          Omp_parallel { num_threads; body = on_block body }
      | Omp_single { nowait; body } -> Omp_single { nowait; body = on_block body }
      | Omp_master body -> Omp_master (on_block body)
      | Omp_critical (name, body) -> Omp_critical (name, on_block body)
      | Omp_for r -> Omp_for { r with body = on_block r.body }
      | Omp_sections { nowait; sections } ->
          Omp_sections { nowait; sections = List.map on_block sections }
      | ( Decl _ | Assign _ | Return | Call _ | Compute _ | Print _ | Coll _
        | Send _ | Recv _ | Istart _ | Wait _ | Test _ | Omp_barrier
        | Check _ ) as d ->
          d
    in
    { s with sdesc }
  in
  { funcs = List.map (fun f -> { f with body = on_block f.body }) program.funcs }

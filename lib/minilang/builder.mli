(** Combinators for building mini-language programs programmatically
    (benchmark generators, tests).  Expression operators carry a [':']
    suffix ([+:], [==:], ...) so Stdlib's integer operators stay usable in
    generator code that opens this module. *)

(* Expressions *)

val i : int -> Ast.expr

val b : bool -> Ast.expr

val v : string -> Ast.expr

val rank : Ast.expr

val size : Ast.expr

val tid : Ast.expr

val nthreads : Ast.expr

val ( +: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( -: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( *: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( /: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( %: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( ==: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( !=: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( <: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( <=: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( >: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( >=: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( &&: ) : Ast.expr -> Ast.expr -> Ast.expr

val ( ||: ) : Ast.expr -> Ast.expr -> Ast.expr

(* Statements *)

val mk : ?loc:Loc.t -> Ast.sdesc -> Ast.stmt

(** Re-locate a statement at a synthetic line. *)
val at : int -> Ast.stmt -> Ast.stmt

val decl : string -> Ast.expr -> Ast.stmt

val assign : string -> Ast.expr -> Ast.stmt

val if_ : Ast.expr -> Ast.block -> Ast.block -> Ast.stmt

val while_ : Ast.expr -> Ast.block -> Ast.stmt

val for_ : string -> Ast.expr -> Ast.expr -> Ast.block -> Ast.stmt

val return : Ast.stmt

val call : string -> Ast.expr list -> Ast.stmt

val compute : Ast.expr -> Ast.stmt

val print : Ast.expr -> Ast.stmt

(* Collectives *)

val coll : ?target:string -> Ast.collective -> Ast.stmt

val barrier : unit -> Ast.stmt

val bcast : ?target:string -> root:Ast.expr -> Ast.expr -> Ast.stmt

val reduce :
  ?target:string -> op:Ast.reduce_op -> root:Ast.expr -> Ast.expr -> Ast.stmt

val allreduce : ?target:string -> op:Ast.reduce_op -> Ast.expr -> Ast.stmt

val gather : ?target:string -> root:Ast.expr -> Ast.expr -> Ast.stmt

val scatter : ?target:string -> root:Ast.expr -> Ast.expr -> Ast.stmt

val allgather : ?target:string -> Ast.expr -> Ast.stmt

val alltoall : ?target:string -> Ast.expr -> Ast.stmt

val scan : ?target:string -> op:Ast.reduce_op -> Ast.expr -> Ast.stmt

val reduce_scatter : ?target:string -> op:Ast.reduce_op -> Ast.expr -> Ast.stmt

(* Point-to-point *)

val send : dest:Ast.expr -> ?tag:Ast.expr -> Ast.expr -> Ast.stmt

val recv : target:string -> src:Ast.expr -> ?tag:Ast.expr -> unit -> Ast.stmt

(* Split-phase (nonblocking) operations *)

val ibarrier : string -> Ast.stmt

val iallreduce :
  string -> target:string -> op:Ast.reduce_op -> Ast.expr -> Ast.stmt

val isend : string -> dest:Ast.expr -> ?tag:Ast.expr -> Ast.expr -> Ast.stmt

val irecv :
  string -> target:string -> src:Ast.expr -> ?tag:Ast.expr -> unit -> Ast.stmt

val wait : string -> Ast.stmt

val test : target:string -> string -> Ast.stmt

(* OpenMP *)

val parallel : ?num_threads:Ast.expr -> Ast.block -> Ast.stmt

val single : ?nowait:bool -> Ast.block -> Ast.stmt

val master : Ast.block -> Ast.stmt

val critical : ?name:string -> Ast.block -> Ast.stmt

val omp_barrier : Ast.stmt

val omp_for :
  ?nowait:bool ->
  ?reduction:Ast.reduce_op * string ->
  string ->
  Ast.expr ->
  Ast.expr ->
  Ast.block ->
  Ast.stmt

val sections : ?nowait:bool -> Ast.block list -> Ast.stmt

(* Functions and programs *)

val func : ?params:string list -> string -> Ast.block -> Ast.func

val program : Ast.func list -> Ast.program

(** Assign each builder-located statement a distinct synthetic line
    number (depth-first order), so warnings on generated programs name
    distinct sites. *)
val number_lines : Ast.program -> Ast.program

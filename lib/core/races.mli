(** Static data-race detection: an MHP (may-happen-in-parallel) relation
    over CFG nodes derived from parallelism words, barrier phases and
    single/master/section structure (generalising {!Concurrency}'s
    pairwise logic), over the shared accesses of one scoped walk of the
    function body: the accesses, under a [parallel], to storage declared
    outside the innermost region.  A function without such accesses pays
    for the walk only.  Over-approximating: the differential tests check
    that every race the dynamic vector-clock oracle observes is
    statically reported. *)

open Minilang

type access = {
  node : int;
  var : string;
  decl_id : int;
  write : bool;
  loc : Loc.t;
  criticals : string list;
  completion_write : bool;
      (** The buffer write of a split-phase start, performed by the
          request's completion. *)
}

type pair = {
  pvar : string;
  a1 : access;
  a2 : access;  (** Ordered: [a1.loc <= a2.loc]. *)
  feeds_collective : bool;
      (** Relevance attribute: the variable transitively feeds a
          collective argument or a conditional. *)
}

type result = {
  wait_filtered : int;
      (** Pairs discharged by the request happens-before refinement
          ({!Requests.completion_ordered}): an [MPI_Wait] orders the
          completion write of its buffer — it is not a barrier. *)
  pairs : pair list;
}

(** The word-level MHP relation for two distinct nodes.  [phase_blind]
    disables the leading-barrier phase test (set when a node lies on a
    cycle through a barrier, where the word fixpoint truncates trailing
    barriers). *)
val mhp : phase_blind:bool -> Pword.word -> Pword.word -> bool

(** [requests], when given, enables the happens-before refinement
    against the request-lifecycle facts of the same function. *)
val analyze :
  ?requests:Requests.result -> pword:Pword.t -> Cfg.Graph.t -> Ast.func ->
  result

val warnings : fname:string -> result -> Warning.t list

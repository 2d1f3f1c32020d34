(** Static verification of the nonblocking request lifecycle: a forward
    may-dataflow over the CFG tracks every request variable from start
    ([MPI_Ibarrier]/[MPI_Iallreduce]/[MPI_Isend]/[MPI_Irecv]) to
    completion ([MPI_Wait]/[MPI_Test]) and reports request leaks, double
    waits, uses of a buffer before its completion, and split-phase
    collectives whose {e completion} placement is not
    control-flow-uniform across ranks (the phase-3 pword/PDF+ check
    anchored at the wait, not the start).

    Over-approximating by design: the runtime lifecycle checker of
    {!Interp.Sim} is the dynamic oracle, and the differential suite
    checks [dynamic ⊆ static] — every violation a run observes must be
    covered by a warning from this pass. *)

module SSet : Set.S with type elt = string

type finding =
  | Leak of { req : string; rop : string; started : Minilang.Loc.t list }
  | Double of {
      req : string;
      loc : Minilang.Loc.t;
      prior : Minilang.Loc.t list;
    }
  | Stale of {
      req : string;
      var : string;
      write : bool;
      loc : Minilang.Loc.t;
      started : Minilang.Loc.t list;
    }
  | Nonuniform of {
      req : string;
      coll : string;
      sites : Minilang.Loc.t list;
      conds : Minilang.Loc.t list;
    }

type result = {
  nrequests : int;  (** Distinct request variables in the function. *)
  nstarts : int;  (** [Istart] statements. *)
  findings : finding list;  (** Deduplicated, in discovery order. *)
  inflight : SSet.t array;
      (** Per-node input fact projected to may-in-flight request
          names. *)
  buffers : (string * string) list;
      (** [(request, buffer)] pairs of buffer-receiving starts. *)
}

(** [analyze actx ~taint_filter] runs the lifecycle dataflow on the
    graph of [actx].  With [taint_filter:true] the completion-mismatch
    check keeps only rank-dependent conditionals (like phase 3).  The
    reverse postorder, [PDF+] and taint come from the context. *)
val analyze : Cfg.Actx.t -> taint_filter:bool -> result

(** [completion_ordered r ~node ~var] is [true] when every request whose
    buffer is [var] is definitely completed at [node]'s input: the
    completion write happens-before any access at [node], so {!Races}
    may discharge the pair (the wait orders that buffer only — it is
    not a barrier). *)
val completion_ordered : result -> node:int -> var:string -> bool

val warnings : fname:string -> result -> Warning.t list

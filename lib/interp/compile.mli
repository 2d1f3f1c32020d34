(** One-shot lowering of a validated [Ast.program] into the resolved form
    executed by {!Sim.run_compiled}: variables become integer slots in
    per-frame [int array]s (scope analysis at compile time, OpenMP
    shared-by-default preserved by chaining team-member frames to the
    forker's frame), statements carry precomputed site strings, canonical
    uids, resolved callees and pre-translated collective/reduction
    descriptors, and expressions are closure-compiled.  Each program
    point carries its scope, the locations of the variables visible
    there, which state fingerprints hash — see docs/PERFORMANCE.md, "The
    compiled interpreter core". *)

(** One level of mutable variable storage; [up] is the lexically enclosing
    frame (root frames point at a dummy).  [fid] is a per-run frame
    identity used to key storage locations: lazily assigned by the race
    oracle ({!Raceck}) on first access ([-1] until seen), or — under the
    DPOR recorder ({!Dpor}), which needs identities that are equal across
    runs sharing a schedule prefix — assigned at frame creation via
    [?fid] (drawn from {!Raceck.fresh_fid}, the same counter, so the two
    schemes never collide). *)
type frame = { slots : int array; up : frame; mutable fid : int }

val root_frame : ?fid:int -> int -> frame

val child_frame : ?fid:int -> parent:frame -> int -> frame

(** [up fr n] walks [n] levels up the frame chain. *)
val up : frame -> int -> frame

(** A resolved storage location. *)
type loc = { l_frame : frame; l_slot : int }

val read_loc : loc -> int

val write_loc : loc -> int -> unit

(** Per-task constants threaded into compiled expressions. *)
type ectx = { e_rank : int; e_tid : int; e_nthreads : int; e_nranks : int }

(** Raised by compiled code on evaluation errors; converted to
    [Fault (Eval_error _)] by the driver. *)
exception Error of { rank : int; site : string; message : string }

type exprc = ectx -> frame -> int

type vref = { v_hops : int; v_slot : int }

(** A variable reference that may be statically unbound; the error fires
    at execution time. *)
type cell_ref = CRef of vref | CUnbound of string

(** The variables visible at a program point, in a fixed order. *)
type scope = vref array

(** A resolved variable access a statement performs (reads in evaluation
    order, then writes), recorded for the dynamic race oracle:
    [a_hops]/[a_slot] locate the storage relative to the frame the
    statement executes against.  Accesses that provably cannot race are
    omitted at lowering time (declaration writes, loop-variable writes,
    reduction private/combine writes, callee parameter writes). *)
type access = { a_name : string; a_hops : int; a_slot : int; a_write : bool }

type cstmt = { uid : int; site : string; acc : access array; desc : cdesc }

and cblock = {
  stmts : cstmt array;
  scopes : scope array;  (** [n+1] scopes (before statement [i]). *)
}

and cdesc =
  | CDecl of int * exprc
  | CAssign of vref * exprc
  | CAssign_unbound of string * exprc
  | CIf of exprc * cblock * cblock
  | CWhile of {
      cond : exprc;
      scope : scope;
      cacc : access array;  (** Condition reads, re-recorded per loop-back. *)
      body : cblock;
    }
  | CFor of {
      slot : int;
      lo : exprc;
      hi : exprc;
      scope : scope;
      body : cblock;
    }
  | CReturn
  | CCall of { target : cfunc; args : exprc array }
  | CCall_error of string
  | CCompute of exprc
  | CPrint of exprc
  | CColl of { target : cell_ref option; coll : ccoll }
  | CCheck of ccheck
  | CSend of { value : exprc; dest : exprc; tag : exprc }
  | CRecv of { target : cell_ref; src : exprc; tag : exprc }
  | CIstart of { rslot : int; rop : crop }
      (** Split-phase start: posts the operation and writes the fresh
          request id into [rslot]. *)
  | CWait of { req : cell_ref }
  | CTest of { target : cell_ref; req : cell_ref }
  | CPar of { num_threads : exprc option; nslots : int; body : cblock }
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
      body : cblock;
    }
  | CSections of { nowait : bool; sections : cblock array }

and crop =
  | KIbarrier
  | KIallreduce of { op : Mpisim.Op.t; target : cell_ref; value : exprc }
  | KIsend of { value : exprc; dest : exprc; tag : exprc }
  | KIrecv of { target : cell_ref; src : exprc; tag : exprc }

and creduction = {
  r_op : Minilang.Ast.reduce_op;
  r_shared : cell_ref;
  r_priv_slot : int;
}

and ccoll = {
  k_kind : Mpisim.Coll.kind;
  k_op : Mpisim.Op.t option;
  k_root : exprc option;
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
  mutable f_nslots : int;
  mutable f_body : cblock;
}

(** A lowered program.  Immutable once {!lower} returns, so one compiled
    form is safely shared across exploration worker domains. *)
type t = { funcs : cfunc array; by_name : (string, cfunc) Hashtbl.t }

(** Callee/entry lookup; first match wins on duplicate names, mirroring
    [Ast.find_func]. *)
val find : t -> string -> cfunc option

val op_of_ast : Minilang.Ast.reduce_op -> Mpisim.Op.t

val lower : Minilang.Ast.program -> t

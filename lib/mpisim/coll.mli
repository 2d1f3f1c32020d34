(** Collective-call descriptors exchanged with the matching engine.
    Payloads are scalar integers with synthetic but deterministic (and,
    where the real collective is rank-dependent, rank-dependent) result
    semantics — the validation work is about call placement and matching,
    not data layout. *)

type kind =
  | Barrier
  | Bcast
  | Reduce
  | Allreduce
  | Gather
  | Scatter
  | Allgather
  | Alltoall
  | Scan
  | Reduce_scatter
  | Cc_check  (** The PARCOACH [CC] agreement pseudo-collective. *)

val kind_name : kind -> string

type call = {
  kind : kind;
  op : Op.t option;  (** For reductions. *)
  root : int option;  (** Evaluated root rank, where applicable. *)
  payload : int;  (** Contribution; the CC colour for [Cc_check]. *)
  site : string;  (** Printable source position for diagnostics. *)
}

val barrier : site:string -> call

val make :
  kind -> ?op:Op.t -> ?root:int -> payload:int -> site:string -> unit -> call

val cc_check : color:int -> site:string -> call

val pp_call : call Fmt.t

(** The part of the call every rank must agree on. *)
val signature : call -> kind * Op.t option * int option

val signature_to_string : kind * Op.t option * int option -> string

(** Result delivered to [rank] once all contributions (indexed by rank)
    are present; see the implementation notes for the synthetic semantics
    of each kind. *)
val result_for : call -> rank:int -> contributions:int array -> int

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

(** Signature interning for streaming checkers: maps each distinct
    [(kind, op, root)] triple to a small integer once, so online
    matchers compare ints instead of building strings.  Thread-safe (one
    table is shared between producing ranks and reducer domains). *)
module Intern : sig
  type signature = kind * Op.t option * int option

  type t

  (** Reserved id meaning "stream ended before this round"; never
      returned by {!id}. *)
  val no_event : int

  val no_event_string : string

  val create : unit -> t

  (** Intern a signature; equal signatures always get equal ids. *)
  val id : t -> signature -> int

  (** Printable form of an interned id (or {!no_event}).
      @raise Invalid_argument on an id this table never produced. *)
  val to_string : t -> int -> string

  (** Distinct signatures interned so far (excluding [no_event]). *)
  val size : t -> int
end

(** Result delivered to [rank] once all contributions (indexed by rank)
    are present; see the implementation notes for the synthetic semantics
    of each kind. *)
val result_for : call -> rank:int -> contributions:int array -> int

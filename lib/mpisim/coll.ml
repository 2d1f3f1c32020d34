(** Collective-call descriptors exchanged with the matching engine.

    Payloads are single integers — the validation work of the paper is about
    call {e placement} and {e matching}, not data layout, so a scalar
    payload with synthetic (but deterministic and, where relevant,
    rank-dependent) result semantics is sufficient; see {!result_for}. *)

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

let kind_name = function
  | Barrier -> "MPI_Barrier"
  | Bcast -> "MPI_Bcast"
  | Reduce -> "MPI_Reduce"
  | Allreduce -> "MPI_Allreduce"
  | Gather -> "MPI_Gather"
  | Scatter -> "MPI_Scatter"
  | Allgather -> "MPI_Allgather"
  | Alltoall -> "MPI_Alltoall"
  | Scan -> "MPI_Scan"
  | Reduce_scatter -> "MPI_Reduce_scatter"
  | Cc_check -> "PARCOACH_CC"

type call = {
  kind : kind;
  op : Op.t option;  (** For reductions. *)
  root : int option;  (** Evaluated root rank, where applicable. *)
  payload : int;  (** Contribution of the calling rank; the CC colour for
                      [Cc_check]. *)
  site : string;  (** Printable source position for diagnostics. *)
}

let barrier ~site = { kind = Barrier; op = None; root = None; payload = 0; site }

let make kind ?op ?root ~payload ~site () = { kind; op; root; payload; site }

let cc_check ~color ~site =
  { kind = Cc_check; op = None; root = None; payload = color; site }

let pp_call ppf c =
  let opt pp ppf = function None -> () | Some x -> Fmt.pf ppf ", %a" pp x in
  Fmt.pf ppf "%s(payload=%d%a%a) at %s" (kind_name c.kind) c.payload
    (opt Op.pp) c.op
    (opt (fun ppf -> Fmt.pf ppf "root=%d")) c.root c.site

(** [signature c] is the part of the call every rank must agree on. *)
let signature c = (c.kind, c.op, c.root)

let signature_to_string (kind, op, root) =
  String.concat ""
    [
      kind_name kind;
      (match op with None -> "" | Some o -> "[" ^ Op.to_string o ^ "]");
      (match root with
      | None -> ""
      | Some r -> "[root=" ^ string_of_int r ^ "]");
    ]

(** Result delivered to [rank] once all [contributions] (indexed by rank)
    are present.  Semantics are synthetic but deterministic:
    - [Barrier]/[Cc_check]: 0;
    - [Bcast]: the root's payload for everyone;
    - [Reduce]: the reduction at the root, 0 elsewhere;
    - [Allreduce]: the reduction everywhere;
    - [Gather]: the payload sum at the root, 0 elsewhere;
    - [Scatter]: the root's payload plus the receiver's rank (each rank
      receives a distinct piece);
    - [Allgather]: the payload sum everywhere;
    - [Alltoall]: the payload sum plus the receiver's rank;
    - [Scan]: the prefix reduction over ranks [0..rank];
    - [Reduce_scatter]: the prefix reduction as well (per-rank block of the
      reduction). *)
let result_for call ~rank ~(contributions : int array) =
  let all = Array.to_list contributions in
  let prefix = Array.to_list (Array.sub contributions 0 (rank + 1)) in
  let opv = Option.value call.op ~default:Op.Sum in
  match call.kind with
  | Barrier | Cc_check -> 0
  | Bcast -> (
      match call.root with
      | Some r -> contributions.(r)
      | None -> 0)
  | Reduce -> (
      match call.root with
      | Some r when r = rank -> Op.fold opv all
      | _ -> 0)
  | Allreduce -> Op.fold opv all
  | Gather -> (
      match call.root with
      | Some r when r = rank -> Op.fold Op.Sum all
      | _ -> 0)
  | Scatter -> (
      match call.root with
      | Some r -> contributions.(r) + rank
      | None -> 0)
  | Allgather -> Op.fold Op.Sum all
  | Alltoall -> Op.fold Op.Sum all + rank
  | Scan -> Op.fold opv prefix
  | Reduce_scatter -> Op.fold opv prefix

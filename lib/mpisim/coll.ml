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

let kind_of_name = function
  | "MPI_Barrier" -> Some Barrier
  | "MPI_Bcast" -> Some Bcast
  | "MPI_Reduce" -> Some Reduce
  | "MPI_Allreduce" -> Some Allreduce
  | "MPI_Gather" -> Some Gather
  | "MPI_Scatter" -> Some Scatter
  | "MPI_Allgather" -> Some Allgather
  | "MPI_Alltoall" -> Some Alltoall
  | "MPI_Scan" -> Some Scan
  | "MPI_Reduce_scatter" -> Some Reduce_scatter
  | "PARCOACH_CC" -> Some Cc_check
  | _ -> None

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

(** Signature interning for streaming checkers (MUST-style overlay
    tools).  Comparing collective signatures is the hot operation of an
    online matcher: interning maps each distinct [(kind, op, root)]
    triple to a small integer once, so the per-event work downstream is
    an integer comparison instead of a string build.  The table is
    mutex-protected — producers (simulated ranks) and the checker's
    reducer domains share one table. *)
module Intern = struct
  type signature = kind * Op.t option * int option

  type t = {
    mutex : Mutex.t;
    ids : (signature, int) Hashtbl.t;
    mutable names : string array;  (** id -> printable signature. *)
    mutable next : int;
  }

  (** Reserved id for "this rank's stream ended before this round". *)
  let no_event = 0

  let no_event_string = "<no event>"

  let create () =
    let names = Array.make 16 "" in
    names.(no_event) <- no_event_string;
    { mutex = Mutex.create (); ids = Hashtbl.create 32; names; next = 1 }

  let id t signature =
    Mutex.lock t.mutex;
    let id =
      match Hashtbl.find_opt t.ids signature with
      | Some id -> id
      | None ->
          let id = t.next in
          t.next <- id + 1;
          Hashtbl.add t.ids signature id;
          if id >= Array.length t.names then begin
            let names = Array.make (2 * Array.length t.names) "" in
            Array.blit t.names 0 names 0 (Array.length t.names);
            t.names <- names
          end;
          t.names.(id) <- signature_to_string signature;
          id
    in
    Mutex.unlock t.mutex;
    id

  let to_string t id =
    Mutex.lock t.mutex;
    if id < 0 || id >= t.next then begin
      Mutex.unlock t.mutex;
      invalid_arg "Coll.Intern.to_string: unknown id"
    end;
    let s = t.names.(id) in
    Mutex.unlock t.mutex;
    s

  (** Distinct signatures interned so far (excluding [no_event]). *)
  let size t =
    Mutex.lock t.mutex;
    let n = t.next - 1 in
    Mutex.unlock t.mutex;
    n
end

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

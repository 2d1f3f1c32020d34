(** Point-to-point messaging of the simulated MPI library.

    Sends are eager (buffered): the sender never blocks.  Receives match
    by (source, tag) with FIFO order per channel, [any_source] matching
    the oldest message of the tag across sources.  Collective validation —
    the paper's scope — ignores this traffic entirely; it exists so the
    benchmark skeletons can mirror the halo exchanges of the real codes
    and so receive-blocked ranks show up in deadlock diagnostics. *)

(** Wildcard source rank (MPI_ANY_SOURCE). *)
let any_source = -1

type message = { src : int; tag : int; value : int; send_site : string }

type t = {
  nranks : int;
  queues : message Queue.t array;  (** One inbox per destination rank. *)
}

let create ~nranks =
  if nranks <= 0 then invalid_arg "Mailbox.create: nranks must be positive";
  {
    nranks;
    queues = Array.init nranks (fun _ -> Queue.create ());
  }

let check_rank t what rank =
  if rank < 0 || rank >= t.nranks then
    invalid_arg (Printf.sprintf "Mailbox: %s rank %d out of range" what rank)

(** Deposit a message; never blocks. *)
let send t ~src ~dst ~tag ~value ~site =
  check_rank t "source" src;
  check_rank t "destination" dst;
  Queue.add { src; tag; value; send_site = site } t.queues.(dst)

(* FIFO extraction of the first message matching (src, tag). *)
let take_matching t ~dst ~src ~tag =
  let q = t.queues.(dst) in
  let kept = Queue.create () in
  let found = ref None in
  Queue.iter
    (fun m ->
      if
        !found = None
        && (src = any_source || m.src = src)
        && m.tag = tag
      then found := Some m
      else Queue.add m kept)
    q;
  Queue.clear q;
  Queue.transfer kept q;
  !found

(** Try to receive: [Some message] consumes it, [None] means the caller
    must block until a matching send arrives. *)
let recv t ~dst ~src ~tag =
  check_rank t "destination" dst;
  if src <> any_source then check_rank t "source" src;
  take_matching t ~dst ~src ~tag

(** Undelivered messages sitting in [rank]'s inbox. *)
let pending t rank = Queue.length t.queues.(rank)

(** Undelivered messages of [rank]'s inbox in queue (arrival) order.
    Deposit order is part of the semantic state — receives match FIFO per
    channel — so state fingerprints fold over this list. *)
let inbox t rank =
  check_rank t "inbox" rank;
  let q = t.queues.(rank) in
  if Queue.is_empty q then [] else List.of_seq (Queue.to_seq q)


(** The collective matching engine of the simulated MPI runtime.

    One engine instance models MPI_COMM_WORLD of a job with [nranks]
    processes.  Each process owns a single collective "slot": MPI forbids
    two concurrent collectives on the same communicator from one process,
    so a second arrival from a rank whose slot is full is precisely the
    hybrid-programming error the paper targets (non-synchronized threads
    both reaching collectives), and is reported as such.

    When every rank has arrived, the engine validates that all calls have
    the same signature (collective kind, reduction operator, root) — a
    MUST-style matching check — and, for the PARCOACH [CC]
    pseudo-collective, that all colours agree.  On success it computes the
    per-rank results and releases the callers. *)

type rank_call = {
  rank : int;
  cookie : int;  (** Caller identifier, returned on completion so the
                     scheduler can unblock the right task. *)
  call : Coll.call;
}

type outcome =
  | Completed of { calls : rank_call list; results : int array }
      (** All ranks matched; [results.(r)] is rank [r]'s received value. *)
  | Mismatch of rank_call list
      (** Ranks arrived with different signatures: a collective mismatch
          (error compiled programs would deadlock or corrupt on). *)
  | Cc_divergence of rank_call list
      (** The CC agreement check found diverging colours: the instrumented
          program aborts cleanly before the faulty collective executes. *)

(** Outcome of one nonblocking round (see {!nb_advance}). *)
type nb_outcome =
  | Nb_completed of { round : int; calls : rank_call list; results : int array }
  | Nb_mismatch of { round : int; calls : rank_call list }

type arrive_result =
  | Waiting  (** The caller must block until the collective completes. *)
  | Busy_rank of { pending_site : string; pending_kind : Coll.kind }
      (** The rank already has a collective in flight: concurrent collective
          calls from non-synchronized threads. *)

type stats = {
  mutable completed : int;
  mutable cc_checks : int;
}

(** One recorded collective arrival, for post-mortem trace checking
    (MUST/Marmot-style tools consume exactly such per-rank streams). *)
type trace_event = {
  signature : Coll.kind * Op.t option * int option;
  payload : int;
  event_site : string;
}

type t = {
  nranks : int;
  slots : rank_call option array;
  mutable traces : trace_event list array;
      (** Per-rank arrival streams, reversed. *)
  stats : stats;
  mutable hook : (rank:int -> trace_event -> unit) option;
      (** Streaming subscriber, called on every recorded arrival. *)
  mutable retain : bool;  (** Whether {!traces} accumulates events. *)
  nb_queue : rank_call Queue.t array;
      (** Per-rank FIFO of split-phase posts not yet part of a completed
          round.  Nonblocking collectives match {e round-wise}: a rank's
          [k]-th post joins global round [k], independently of the
          blocking slots (MPI forbids matching [MPI_Ibarrier] against
          [MPI_Barrier]; here the two matching domains simply never
          meet, so such programs deadlock, as real ones do). *)
  mutable nb_done : int;  (** Number of completed nonblocking rounds. *)
  nb_results : (int, int array) Hashtbl.t;
      (** Per-rank results of each matched round, kept until the job ends
          so late [MPI_Wait]s can still collect their value. *)
}

let create ~nranks =
  if nranks <= 0 then invalid_arg "Engine.create: nranks must be positive";
  {
    nranks;
    slots = Array.make nranks None;
    traces = Array.make nranks [];
    stats = { completed = 0; cc_checks = 0 };
    hook = None;
    retain = true;
    nb_queue = Array.init nranks (fun _ -> Queue.create ());
    nb_done = 0;
    nb_results = Hashtbl.create 16;
  }

let nranks t = t.nranks

(** Subscribe a streaming consumer: [f ~rank event] runs synchronously on
    every recorded (non-CC) arrival, in each rank's program order.  One
    subscriber at a time; subscribing replaces the previous hook. *)
let subscribe t f = t.hook <- Some f

(** [set_retention t false] stops accumulating per-rank traces (and
    drops what was recorded so far): a subscribed streaming checker,
    which holds only the events of rounds still waiting for a rank,
    then replaces the full trace.
    Post-hoc {!all_traces} sees only events recorded while retention was
    on. *)
let set_retention t retain =
  if t.retain && not retain then t.traces <- Array.make t.nranks [];
  t.retain <- retain

(** Pending arrivals, for deadlock diagnostics. *)
let pending t =
  Array.to_list t.slots |> List.filter_map (fun x -> x)

(* Feed one (non-CC) arrival to the trace stream and the streaming
   subscriber.  Split-phase posts are recorded at posting time: MPI
   requires all ranks to issue the collectives of a communicator in the
   same order whether blocking or not, so one interleaved per-rank stream
   is the faithful MUST-style event order. *)
let record_arrival t ~rank call =
  if call.Coll.kind <> Coll.Cc_check then begin
    let event =
      {
        signature = Coll.signature call;
        payload = call.Coll.payload;
        event_site = call.Coll.site;
      }
    in
    if t.retain then t.traces.(rank) <- event :: t.traces.(rank);
    match t.hook with None -> () | Some f -> f ~rank event
  end

let arrive t ~rank ~cookie call =
  if rank < 0 || rank >= t.nranks then invalid_arg "Engine.arrive: bad rank";
  match t.slots.(rank) with
  | Some prev ->
      Busy_rank
        {
          pending_site = prev.call.Coll.site;
          pending_kind = prev.call.Coll.kind;
        }
  | None ->
      t.slots.(rank) <- Some { rank; cookie; call };
      record_arrival t ~rank call;
      Waiting

(** If every rank has arrived, match and complete the collective.  The
    slots are cleared whatever the verdict, so the scheduler can abort or
    resume cleanly. *)
let try_complete t =
  let all_present = Array.for_all (fun s -> s <> None) t.slots in
  if not all_present then None
  else begin
    let calls =
      Array.to_list t.slots |> List.filter_map (fun x -> x)
    in
    Array.fill t.slots 0 t.nranks None;
    let sigs = List.map (fun rc -> Coll.signature rc.call) calls in
    let first_sig = List.hd sigs in
    if not (List.for_all (fun s -> s = first_sig) sigs) then
      Some (Mismatch calls)
    else
      let kind = (List.hd calls).call.Coll.kind in
      if kind = Coll.Cc_check then begin
        t.stats.cc_checks <- t.stats.cc_checks + 1;
        let colors = List.map (fun rc -> rc.call.Coll.payload) calls in
        let first = List.hd colors in
        if List.for_all (fun c -> c = first) colors then begin
          let results = Array.make t.nranks 0 in
          Some (Completed { calls; results })
        end
        else Some (Cc_divergence calls)
      end
      else begin
        let contributions = Array.make t.nranks 0 in
        List.iter
          (fun rc -> contributions.(rc.rank) <- rc.call.Coll.payload)
          calls;
        let model = (List.hd calls).call in
        let results =
          Array.init t.nranks (fun rank ->
              Coll.result_for model ~rank ~contributions)
        in
        t.stats.completed <- t.stats.completed + 1;
        Some (Completed { calls; results })
      end
  end

(* ------------------------------------------------------------------ *)
(* Nonblocking (split-phase) rounds                                     *)
(* ------------------------------------------------------------------ *)

(** [nb_post t ~rank ~cookie call] registers a split-phase collective
    start ([MPI_Ibarrier]/[MPI_Iallreduce]) and returns the global round
    index the post joined: the rank's [k]-th post belongs to round [k].
    The caller does {e not} block — completion is observed through
    {!nb_advance} and collected by a later wait.
    @raise Invalid_argument on an out-of-range rank. *)
let nb_post t ~rank ~cookie call =
  if rank < 0 || rank >= t.nranks then invalid_arg "Engine.nb_post: bad rank";
  let round = t.nb_done + Queue.length t.nb_queue.(rank) in
  Queue.add { rank; cookie; call } t.nb_queue.(rank);
  record_arrival t ~rank call;
  round

(** Match and complete every round all ranks have posted, strictly in
    round order, returning the outcomes oldest first.  A matched round's
    per-rank results are retained for {!nb_result}; a signature mismatch
    produces {!Nb_mismatch} (the driver aborts, like a blocking
    {!Mismatch}). *)
let nb_advance t =
  let ready () =
    Array.for_all (fun q -> not (Queue.is_empty q)) t.nb_queue
  in
  let rec loop acc =
    if not (ready ()) then List.rev acc
    else begin
      let round = t.nb_done in
      let calls =
        Array.to_list (Array.map (fun q -> Queue.pop q) t.nb_queue)
      in
      t.nb_done <- round + 1;
      let sigs = List.map (fun rc -> Coll.signature rc.call) calls in
      let first_sig = List.hd sigs in
      if not (List.for_all (fun s -> s = first_sig) sigs) then
        loop (Nb_mismatch { round; calls } :: acc)
      else begin
        let contributions = Array.make t.nranks 0 in
        List.iter
          (fun rc -> contributions.(rc.rank) <- rc.call.Coll.payload)
          calls;
        let model = (List.hd calls).call in
        let results =
          Array.init t.nranks (fun rank ->
              Coll.result_for model ~rank ~contributions)
        in
        t.stats.completed <- t.stats.completed + 1;
        Hashtbl.replace t.nb_results round results;
        loop (Nb_completed { round; calls; results } :: acc)
      end
    end
  in
  loop []

(** Number of completed nonblocking rounds: round [k] is completable by a
    waiter iff [k < nb_completed_rounds t]. *)
let nb_completed_rounds t = t.nb_done

(** Rank [rank]'s result of completed round [round] (0 for a round that
    mismatched — the job aborts before anyone collects it). *)
let nb_result t ~round ~rank =
  match Hashtbl.find_opt t.nb_results round with
  | Some results -> results.(rank)
  | None -> 0

(** Split-phase posts not yet part of a completed round, by rank then
    posting order — deadlock diagnostics and state fingerprints. *)
let nb_pending t =
  if Array.for_all Queue.is_empty t.nb_queue then []
  else
    Array.to_list t.nb_queue
    |> List.concat_map (fun q -> List.of_seq (Queue.to_seq q))

(** The recorded arrival stream of [rank], in program order.  CC checks
    are tool-internal and excluded. *)
let rank_trace t rank = List.rev t.traces.(rank)

(** All per-rank traces, indexed by rank. *)
let all_traces t = Array.init t.nranks (fun rank -> rank_trace t rank)

let completed_count t = t.stats.completed

let cc_check_count t = t.stats.cc_checks

let pp_rank_call ppf rc =
  Fmt.pf ppf "rank %d: %a" rc.rank Coll.pp_call rc.call

(** Human-readable description of a mismatch or CC divergence. *)
let describe_divergence calls =
  Fmt.str "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_rank_call) calls

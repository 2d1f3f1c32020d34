(** Streaming MUST-style overlay checking: the online production form of
    {!Overlay}.

    Architecture (one checker instance per simulated MPI_COMM_WORLD):

    - {e Leaves / producers}: each rank pushes its collective events as
      they happen ({!push}, typically from an {!Mpisim.Engine.subscribe}
      hook).  A push interns the signature once in the shared
      {!Mpisim.Coll.Intern} table and enqueues the resulting integer id
      into that rank's {e bounded} {!Ring} mailbox — when the mailbox is
      full the push blocks, so a rank can run at most [window] collective
      rounds ahead of the slowest checked round (backpressure; in-flight
      memory is O(window × nranks) whatever the trace length).
    - {e Internal nodes / reducer}: a coordinator domain drains the
      mailboxes in batches of up to [batch] rounds and scans them for
      agreement, one loop over the ranks per round — the hot path is an
      integer comparison per (rank, round), no strings, no hashtables.
    - {e Report}: the number of agreeing rounds and, on a divergence,
      the signature strings of the first disagreeing round go to
      {!Overlay.report_of_rounds} — the same report builder the post-hoc
      checker uses — so verdict, divergence position, layer, node, groups
      and cost metrics are byte-identical to {!Overlay.check} on the same
      traces with the same fanout.  After a divergence the coordinator
      drains and discards the remaining input so producers never block on
      a dead checker. *)

module Intern = Mpisim.Coll.Intern

type stats = {
  events : int;  (** Events consumed before the verdict was reached. *)
  drained : int;  (** Events discarded after an early divergence verdict. *)
  batches : int;  (** Reduction batches executed. *)
  max_batch_fill : int;  (** Largest number of rounds reduced in one batch. *)
  max_in_flight : int;
      (** Largest buffered event count (mailboxes + batch carries)
          observed at a batch boundary; hard bound
          [(window + batch) * nranks]. *)
  distinct_signatures : int;  (** Intern-table size at the end. *)
}

(* Per-rank producer-side state, owned by that rank's (single) producer
   thread and never touched by the coordinator: a local flush buffer so
   the mailbox mutex is taken once per [flush_chunk] events, and an
   unsynchronized intern cache (physical-equality fast path over a
   structural table) so the shared intern table's mutex is only hit on
   genuinely new signatures. *)
type producer = {
  buf : int array;
  mutable blen : int;
  cache : (Intern.signature, int) Hashtbl.t;
  mutable last_sig : Intern.signature;
  mutable last_id : int;  (** 0 = no cached signature. *)
}

type t = {
  nranks : int;
  batch : int;
  tree : Overlay.tree;
  flush_chunk : int;
  intern : Intern.t;
  producers : producer array;
  mailboxes : Ring.t array;
  mutable worker : (Overlay.report * stats) Domain.t option;
  mutable outcome : (Overlay.report * stats) option;
}

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

exception Done of Overlay.report

let coordinate t =
  let n = t.nranks in
  (* Per-rank batch carries: ids drained from the mailboxes but not yet
     reduced.  [len.(r) < nrounds] is only possible for an ended rank,
     whose remaining rounds contribute [Intern.no_event]. *)
  let carry = Array.init n (fun _ -> Array.make t.batch 0) in
  let len = Array.make n 0 in
  let ended = Array.make n false in
  let pos = ref 0 in
  let events = ref 0 in
  let drained = ref 0 in
  let batches = ref 0 in
  let max_fill = ref 0 in
  let max_in_flight = ref 0 in
  let id_of r i = if i < len.(r) then carry.(r).(i) else Intern.no_event in
  (* Whether every rank holds rank 0's id at carry index [i]: the hot
     path, inlined by hand. *)
  let agrees i =
    let v = id_of 0 i in
    let r = ref 1 in
    while
      !r < n
      && (if i < Array.unsafe_get len !r then
            Array.unsafe_get (Array.unsafe_get carry !r) i
          else Intern.no_event)
         = v
    do
      incr r
    done;
    !r >= n
  in
  let report =
    try
      let rec loop () =
        (* Fill: one blocking pop per live rank with an empty carry — the
           only place the coordinator waits for producers. *)
        for r = 0 to n - 1 do
          if (not ended.(r)) && len.(r) = 0 then
            match Ring.pop t.mailboxes.(r) with
            | Some id ->
                carry.(r).(0) <- id;
                len.(r) <- 1;
                incr events
            | None -> ended.(r) <- true
        done;
        let alive = ref false in
        for r = 0 to n - 1 do
          if len.(r) > 0 || not ended.(r) then alive := true
        done;
        if not !alive then
          raise (Done (Overlay.report_of_rounds t.tree ~agreed:!pos None));
        (* Top-up: bulk-drain whatever else is queued straight into the
           carry arrays, one lock and one blit per mailbox per batch. *)
        for r = 0 to n - 1 do
          if (not ended.(r)) && len.(r) < t.batch then begin
            let got =
              Ring.pop_into t.mailboxes.(r) carry.(r) len.(r)
                (t.batch - len.(r))
            in
            len.(r) <- len.(r) + got;
            events := !events + got
          end
        done;
        (* Rounds this batch: bounded by every rank still holding real
           events; ended-and-empty ranks contribute <no event> and bound
           nothing. *)
        let bound = ref max_int in
        for r = 0 to n - 1 do
          if len.(r) > 0 then bound := min !bound len.(r)
        done;
        let nrounds = !bound in
        assert (nrounds >= 1 && nrounds <= t.batch);
        incr batches;
        if nrounds > !max_fill then max_fill := nrounds;
        let i = ref 0 in
        while !i < nrounds && agrees !i do
          incr i
        done;
        if !i < nrounds then
          raise
            (Done
               (Overlay.report_of_rounds t.tree ~agreed:(!pos + !i)
                  (Some
                     (Array.init n (fun r ->
                          Intern.to_string t.intern (id_of r !i))))));
        for r = 0 to n - 1 do
          let k = min nrounds len.(r) in
          if k > 0 then begin
            Array.blit carry.(r) k carry.(r) 0 (len.(r) - k);
            len.(r) <- len.(r) - k
          end
        done;
        pos := !pos + nrounds;
        let in_flight = ref 0 in
        for r = 0 to n - 1 do
          in_flight := !in_flight + Ring.length t.mailboxes.(r) + len.(r)
        done;
        if !in_flight > !max_in_flight then max_in_flight := !in_flight;
        loop ()
      in
      loop ()
    with Done report ->
      (* On an early divergence the producers may still be pushing:
         drain and discard until every mailbox is closed, so backpressure
         never blocks a rank on a checker that already has its verdict. *)
      (match report.Overlay.verdict with
      | `Match _ -> ()
      | `Divergence _ ->
          let all_closed = ref false in
          while not !all_closed do
            let progress = ref false in
            all_closed := true;
            Array.iter
              (fun mb ->
                let got = Ring.drain mb in
                drained := !drained + got;
                if got > 0 then progress := true;
                if not (Ring.is_closed mb) then all_closed := false)
              t.mailboxes;
            if (not !all_closed) && not !progress then Domain.cpu_relax ()
          done;
          (* Final sweep: events pushed between the last drain of a
             mailbox and its closure. *)
          Array.iter
            (fun mb -> drained := !drained + Ring.drain mb)
            t.mailboxes);
      report
  in
  ( report,
    {
      events = !events;
      drained = !drained;
      batches = !batches;
      max_batch_fill = !max_fill;
      max_in_flight = !max_in_flight;
      distinct_signatures = Intern.size t.intern;
    } )

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let create ~fanout ?(window = 1024) ?(batch = 256) ~nranks () =
  let tree = Overlay.build_tree ~fanout ~nranks in
  if window < 2 then invalid_arg "Stream.create: window must be >= 2";
  if batch < 1 then invalid_arg "Stream.create: batch must be >= 1";
  (* Flush chunk well under the window: a single lockstep producer
     feeding several ranks can hold up to [flush_chunk] unflushed rounds
     per rank, and [2 * flush_chunk <= window / 2] keeps the coordinator
     supplied whenever backpressure blocks that producer. *)
  let flush_chunk = max 1 (min 256 (window / 4)) in
  let t =
    {
      nranks;
      batch;
      tree;
      flush_chunk;
      intern = Intern.create ();
      producers =
        Array.init nranks (fun _ ->
            {
              buf = Array.make flush_chunk 0;
              blen = 0;
              cache = Hashtbl.create 16;
              last_sig = (Mpisim.Coll.Barrier, None, None);
              last_id = 0;
            });
      mailboxes = Array.init nranks (fun _ -> Ring.create window);
      worker = None;
      outcome = None;
    }
  in
  t.worker <- Some (Domain.spawn (fun () -> coordinate t));
  t

let flush t rank =
  let p = t.producers.(rank) in
  if p.blen > 0 then begin
    Ring.push_array t.mailboxes.(rank) p.buf 0 p.blen;
    p.blen <- 0
  end

let push t ~rank (e : Overlay.event) =
  if rank < 0 || rank >= t.nranks then invalid_arg "Stream.push: bad rank";
  let s = e.Mpisim.Engine.signature in
  let p = t.producers.(rank) in
  let id =
    if p.last_id <> 0 && s == p.last_sig then p.last_id
    else begin
      let id =
        match Hashtbl.find_opt p.cache s with
        | Some id -> id
        | None ->
            let id = Intern.id t.intern s in
            Hashtbl.add p.cache s id;
            id
      in
      p.last_sig <- s;
      p.last_id <- id;
      id
    end
  in
  p.buf.(p.blen) <- id;
  p.blen <- p.blen + 1;
  if p.blen >= t.flush_chunk then flush t rank

let close_rank t ~rank =
  if rank < 0 || rank >= t.nranks then
    invalid_arg "Stream.close_rank: bad rank";
  flush t rank;
  Ring.close t.mailboxes.(rank)

let close t =
  Array.iteri
    (fun rank mb ->
      if not (Ring.is_closed mb) then flush t rank;
      Ring.close mb)
    t.mailboxes

let result t =
  match t.outcome with
  | Some r -> r
  | None ->
      close t;
      let r =
        match t.worker with
        | Some d ->
            t.worker <- None;
            Domain.join d
        | None -> assert false (* outcome cached on first join *)
      in
      t.outcome <- Some r;
      r

(** Subscribe [t] to a simulated MPI engine: every recorded arrival is
    pushed online, and per-rank trace retention is turned off — the
    checker's bounded window replaces the full trace. *)
let attach_engine t engine =
  if Mpisim.Engine.nranks engine <> t.nranks then
    invalid_arg "Stream.attach_engine: rank-count mismatch";
  Mpisim.Engine.set_retention engine false;
  Mpisim.Engine.subscribe engine (fun ~rank event -> push t ~rank event)

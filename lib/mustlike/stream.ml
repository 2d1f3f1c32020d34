(** Streaming MUST-style overlay checking: the online production form of
    {!Overlay}.

    Architecture (one checker instance per simulated MPI_COMM_WORLD):

    - {e Leaves / producers}: each rank pushes its collective events as
      they happen ({!push}, typically from an {!Mpisim.Engine.subscribe}
      hook).  A push interns the signature once in the shared
      {!Mpisim.Coll.Intern} table and enqueues the resulting integer id
      into that rank's {e bounded} mailbox — when the mailbox is full the
      push blocks, so a rank can run at most [window] collective rounds
      ahead of the slowest checked round (backpressure; in-flight memory
      is O(window × nranks) whatever the trace length).
    - {e Internal nodes / reducer}: a coordinator domain drains the
      mailboxes in batches of up to [batch] rounds and scans them for
      agreement — the hot path is an integer comparison per (rank,
      round), no strings, no hashtables.  With [shards > 1] the scan of
      each batch is split over contiguous leaf segments and run on the
      {!Serve.Pool} worker domains (the overlay's internal-node shards);
      verdicts are identical for every shard count.
    - {e Divergence}: the first disagreeing round is replayed through
      {!Overlay.reduce_round} — the exact reduction the post-hoc checker
      runs on its first disagreeing round — so verdict, divergence
      position, layer, node and groups are byte-identical to
      {!Overlay.check} on the same traces with the same fanout.  After a
      divergence the coordinator drains and discards the remaining input
      so producers never block on a dead checker.
    - {e Load-aware reconfiguration} ([adapt:true]): every
      {!retune_interval} batches the coordinator looks at the observed
      batch occupancy.  Consistently full batches mean the reduction is
      the bottleneck, so the tree widens (fewer layers, fewer messages
      per round); consistently near-empty batches mean producers are the
      bottleneck and a narrow deep tree bounds the busiest node's fan-in
      for free.  Retuning never changes verdicts — only the overlay cost
      metrics (and where a later divergence would be localized). *)

module Intern = Mpisim.Coll.Intern
module Mailbox = Serve.Pool.Ring

type stats = {
  events : int;  (** Events consumed before the verdict was reached. *)
  drained : int;  (** Events discarded after an early divergence verdict. *)
  batches : int;  (** Reduction batches executed. *)
  max_batch_fill : int;  (** Largest number of rounds reduced in one batch. *)
  max_in_flight : int;
      (** Largest buffered event count (mailboxes + batch carries)
          observed at a batch boundary; hard bound
          [(window + batch) * nranks]. *)
  retunes : int;  (** Load-aware tree reconfigurations performed. *)
  distinct_signatures : int;  (** Intern-table size at the end. *)
  final_fanout : int;  (** Fanout of the tree after the last retune. *)
  shards : int;
  window : int;
  batch : int;
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
  window : int;
  batch : int;
  nshards : int;
  adapt : bool;
  init_fanout : int;
  flush_chunk : int;
  intern : Intern.t;
  producers : producer array;
  mailboxes : Mailbox.t array;
  pool : Serve.Pool.t option;
  mutable worker : (Overlay.report * stats) Domain.t option;
  mutable outcome : (Overlay.report * stats) option;
}

(** Load-aware initial fanout: the smallest fanout whose tree is at most
    two layers deep for the given leaf count, capped at 16 so no single
    tool node serves an unbounded fan-in (⌈√nranks⌉ clamped to
    [2, 16]). *)
let auto_fanout ~nranks =
  let rec isqrt_up i = if i * i >= nranks then i else isqrt_up (i + 1) in
  max 2 (min 16 (isqrt_up 1))

let retune_interval = 32

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

exception Done of Overlay.report

let coordinate t =
  let n = t.nranks in
  let fanout = ref t.init_fanout in
  let tree = ref (Overlay.build_tree ~fanout:!fanout ~nranks:n) in
  let full = ref (Overlay.full_round_messages !tree) in
  (* Per-rank batch carries: ids drained from the mailboxes but not yet
     reduced.  [len.(r) < nrounds] is only possible for an ended rank,
     whose remaining rounds contribute [Intern.no_event]. *)
  let carry = Array.init n (fun _ -> Array.make t.batch 0) in
  let len = Array.make n 0 in
  let ended = Array.make n false in
  (* Contiguous leaf segments, one per shard. *)
  let bounds =
    let base = n / t.nshards and rem = n mod t.nshards in
    Array.init (t.nshards + 1) (fun s -> (s * base) + min s rem)
  in
  (* Per-shard, per-round scan results: the segment's uniform signature
     id, or -1 when the segment itself disagrees. *)
  let shard_out = Array.init t.nshards (fun _ -> Array.make t.batch 0) in
  let messages = ref 0 in
  let pos = ref 0 in
  let events = ref 0 in
  let drained = ref 0 in
  let batches = ref 0 in
  let max_fill = ref 0 in
  let max_in_flight = ref 0 in
  let retunes = ref 0 in
  let fill_rounds = ref 0 in
  let fill_batches = ref 0 in
  let id_of r i = if i < len.(r) then carry.(r).(i) else Intern.no_event in
  let scan_segment lo hi out nrounds =
    for i = 0 to nrounds - 1 do
      let v =
        if i < Array.unsafe_get len lo then
          Array.unsafe_get (Array.unsafe_get carry lo) i
        else Intern.no_event
      in
      let r = ref (lo + 1) in
      let ok = ref true in
      while !ok && !r < hi do
        let v' =
          if i < Array.unsafe_get len !r then
            Array.unsafe_get (Array.unsafe_get carry !r) i
          else Intern.no_event
        in
        if v' = v then incr r else ok := false
      done;
      out.(i) <- (if !ok then v else -1)
    done
  in
  (* Authoritative localization of a disagreeing round: replay the exact
     post-hoc reduction on the signature strings. *)
  let locate i =
    let initial =
      List.init n (fun r -> (r, (Intern.to_string t.intern (id_of r i), [ r ])))
    in
    match Overlay.reduce_round !tree ~pos:(!pos + i) initial with
    | Ok _, _ -> assert false (* the ids disagreed *)
    | Error d, msgs ->
        messages := !messages + msgs;
        d
  in
  let finish verdict rounds =
    {
      Overlay.verdict;
      rounds;
      messages = !messages;
      tree_depth = Overlay.depth !tree;
      tree_max_fan_in = Overlay.max_fan_in !tree;
    }
  in
  let report =
    try
      let rec loop () =
        (* Fill: one blocking pop per live rank with an empty carry — the
           only place the coordinator waits for producers. *)
        for r = 0 to n - 1 do
          if (not ended.(r)) && len.(r) = 0 then
            match Mailbox.pop t.mailboxes.(r) with
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
        if not !alive then raise (Done (finish (`Match !pos) !pos));
        (* Top-up: bulk-drain whatever else is queued straight into the
           carry arrays, one lock and one blit per mailbox per batch. *)
        for r = 0 to n - 1 do
          if (not ended.(r)) && len.(r) < t.batch then begin
            let got =
              Mailbox.pop_into t.mailboxes.(r) carry.(r) len.(r)
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
        (* Scan for agreement: inline, or sharded over the pool. *)
        (match t.pool with
        | None -> scan_segment 0 n shard_out.(0) nrounds
        | Some pool ->
            let promises =
              Array.init t.nshards (fun s ->
                  Serve.Pool.submit pool (fun () ->
                      scan_segment bounds.(s) bounds.(s + 1) shard_out.(s)
                        nrounds))
            in
            Array.iter (fun p -> Serve.Pool.Promise.await p) promises);
        (* Combine the shard verdicts round by round, in order. *)
        let i = ref 0 in
        let diverged = ref None in
        while !diverged = None && !i < nrounds do
          let v0 = shard_out.(0).(!i) in
          let agree = ref (v0 >= 0) in
          let s = ref 1 in
          while !agree && !s < t.nshards do
            if shard_out.(!s).(!i) <> v0 then agree := false;
            incr s
          done;
          if !agree then begin
            messages := !messages + !full;
            incr i
          end
          else diverged := Some (locate !i)
        done;
        match !diverged with
        | Some d -> raise (Done (finish (`Divergence d) (!pos + !i + 1)))
        | None ->
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
              in_flight := !in_flight + Mailbox.length t.mailboxes.(r) + len.(r)
            done;
            if !in_flight > !max_in_flight then max_in_flight := !in_flight;
            if t.adapt then begin
              fill_rounds := !fill_rounds + nrounds;
              incr fill_batches;
              if !fill_batches >= retune_interval then begin
                let mean =
                  float_of_int !fill_rounds
                  /. float_of_int (!fill_batches * t.batch)
                in
                let fanout' =
                  if mean >= 0.75 then min (!fanout * 2) (max 2 n)
                  else if mean <= 0.25 && !fanout > 2 then max 2 (!fanout / 2)
                  else !fanout
                in
                if fanout' <> !fanout then begin
                  fanout := fanout';
                  tree := Overlay.build_tree ~fanout:fanout' ~nranks:n;
                  full := Overlay.full_round_messages !tree;
                  incr retunes
                end;
                fill_rounds := 0;
                fill_batches := 0
              end
            end;
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
                let got = Mailbox.drain mb in
                drained := !drained + got;
                if got > 0 then progress := true;
                if not (Mailbox.is_closed mb) then all_closed := false)
              t.mailboxes;
            if (not !all_closed) && not !progress then Domain.cpu_relax ()
          done;
          (* Final sweep: events pushed between the last drain of a
             mailbox and its closure. *)
          Array.iter
            (fun mb -> drained := !drained + Mailbox.drain mb)
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
      retunes = !retunes;
      distinct_signatures = Intern.size t.intern;
      final_fanout = !fanout;
      shards = t.nshards;
      window = t.window;
      batch = t.batch;
    } )

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let create ?fanout ?(window = 1024) ?(batch = 256) ?(shards = 1)
    ?(adapt = false) ~nranks () =
  if nranks <= 0 then invalid_arg "Stream.create: nranks must be positive";
  if window < 2 then invalid_arg "Stream.create: window must be >= 2";
  if batch < 1 then invalid_arg "Stream.create: batch must be >= 1";
  if shards < 1 then invalid_arg "Stream.create: shards must be >= 1";
  let init_fanout =
    match fanout with
    | Some f ->
        if f < 2 then invalid_arg "Stream.create: fanout must be >= 2";
        f
    | None -> auto_fanout ~nranks
  in
  let nshards = min shards nranks in
  (* Flush chunk well under the window: a single lockstep producer
     feeding several ranks can hold up to [flush_chunk] unflushed rounds
     per rank, and [2 * flush_chunk <= window / 2] keeps the coordinator
     supplied whenever backpressure blocks that producer. *)
  let flush_chunk = max 1 (min 256 (window / 4)) in
  let t =
    {
      nranks;
      window;
      batch;
      nshards;
      adapt;
      init_fanout;
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
      mailboxes = Array.init nranks (fun _ -> Mailbox.create window);
      pool =
        (if nshards > 1 then Some (Serve.Pool.create ~jobs:nshards ())
         else None);
      worker = None;
      outcome = None;
    }
  in
  t.worker <- Some (Domain.spawn (fun () -> coordinate t));
  t

let intern t (e : Overlay.event) = Intern.id t.intern e.Mpisim.Engine.signature

let flush t rank =
  let p = t.producers.(rank) in
  if p.blen > 0 then begin
    Mailbox.push_array t.mailboxes.(rank) p.buf 0 p.blen;
    p.blen <- 0
  end

let buffer_id t rank id =
  let p = t.producers.(rank) in
  p.buf.(p.blen) <- id;
  p.blen <- p.blen + 1;
  if p.blen >= t.flush_chunk then flush t rank

let push_id t ~rank id =
  if rank < 0 || rank >= t.nranks then invalid_arg "Stream.push: bad rank";
  buffer_id t rank id

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
  buffer_id t rank id

(* Bulk push: one rank check and producer lookup for the whole slice;
   the per-event work is the physical-equality intern hit and a buffer
   store. *)
let push_slice t ~rank (events : Overlay.event array) pos len =
  if rank < 0 || rank >= t.nranks then
    invalid_arg "Stream.push_slice: bad rank";
  if pos < 0 || len < 0 || pos + len > Array.length events then
    invalid_arg "Stream.push_slice: bad slice";
  let p = t.producers.(rank) in
  for i = pos to pos + len - 1 do
    let s = (Array.unsafe_get events i).Mpisim.Engine.signature in
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
  done

let push_all t ~rank (events : Overlay.event array) =
  push_slice t ~rank events 0 (Array.length events)

let close_rank t ~rank =
  if rank < 0 || rank >= t.nranks then
    invalid_arg "Stream.close_rank: bad rank";
  flush t rank;
  Mailbox.close t.mailboxes.(rank)

let close t =
  Array.iteri
    (fun rank mb ->
      if not (Mailbox.is_closed mb) then flush t rank;
      Mailbox.close mb)
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
      Option.iter Serve.Pool.shutdown t.pool;
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

(** Stream complete per-rank traces through a checker from a single
    producer (round-robin by stream position, closing each rank at its
    last event) and return its report and stats: the byte-identical
    streaming counterpart of {!Overlay.check} on the same traces and
    fanout. *)
let check_traces ?fanout ?window ?batch ?shards ?adapt
    (traces : Overlay.event list array) =
  let nranks = Array.length traces in
  let t = create ?fanout ?window ?batch ?shards ?adapt ~nranks () in
  let traces = Array.map Array.of_list traces in
  let max_len =
    Array.fold_left (fun acc tr -> max acc (Array.length tr)) 0 traces
  in
  Array.iteri
    (fun r tr -> if Array.length tr = 0 then close_rank t ~rank:r)
    traces;
  (try
     for pos = 0 to max_len - 1 do
       Array.iteri
         (fun r tr ->
           if pos < Array.length tr then begin
             push t ~rank:r tr.(pos);
             if pos = Array.length tr - 1 then close_rank t ~rank:r
           end)
         traces
     done
   with e ->
     close t;
     raise e);
  result t

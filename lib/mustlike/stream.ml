(** Streaming MUST-style overlay checking: the online form of
    {!Overlay}, run synchronously by whoever pushes (the simulator's
    arrival hook).  A round is checked as soon as every rank holds an
    event or is closed, with the round test and report builder of
    {!Overlay.check}, so both checkers report the same bytes. *)

type stats = { events : int; drained : int; max_in_flight : int }

type t = {
  tree : Overlay.tree;
  pending : Overlay.event Queue.t array;  (** Per-rank unchecked events. *)
  closed : bool array;
  mutable agreed : int;
  mutable divergence : Overlay.report option;
  mutable events : int;
  mutable drained : int;
  mutable max_in_flight : int;
}

let create ~fanout ~nranks () =
  let tree = Overlay.build_tree ~fanout ~nranks in
  {
    tree;
    pending = Array.init nranks (fun _ -> Queue.create ());
    closed = Array.make nranks false;
    agreed = 0;
    divergence = None;
    events = 0;
    drained = 0;
    max_in_flight = 0;
  }

let nranks t = Array.length t.pending

(* Whether the round at the queue heads is decidable: some rank holds
   an event, and every rank holds one or is closed. *)
let decidable t =
  Array.exists (fun q -> not (Queue.is_empty q)) t.pending
  && Array.for_all2
       (fun q closed -> closed || not (Queue.is_empty q))
       t.pending t.closed

(* Check every decidable round at the queue heads. *)
let rec decide t =
  if decidable t then begin
    let round = Array.map Queue.peek_opt t.pending in
    if Overlay.round_agrees round then begin
      Array.iter (fun q -> ignore (Queue.pop q)) t.pending;
      t.agreed <- t.agreed + 1;
      decide t
    end
    else begin
      t.divergence <-
        Some (Overlay.report_of_rounds t.tree ~agreed:t.agreed (Some round));
      Array.iter Queue.clear t.pending
    end
  end

let check_rank t ~rank fn =
  if rank < 0 || rank >= nranks t then invalid_arg ("Stream." ^ fn ^ ": bad rank")

let push t ~rank (e : Overlay.event) =
  check_rank t ~rank "push";
  if t.closed.(rank) then invalid_arg "Stream.push: rank closed";
  if Option.is_some t.divergence then t.drained <- t.drained + 1
  else begin
    Queue.push e t.pending.(rank);
    t.events <- t.events + 1;
    let queued = Array.fold_left (fun n q -> n + Queue.length q) 0 t.pending in
    t.max_in_flight <- max t.max_in_flight queued;
    decide t
  end

let close_rank t ~rank =
  check_rank t ~rank "close_rank";
  if not t.closed.(rank) then begin
    t.closed.(rank) <- true;
    decide t
  end

let close t = for rank = 0 to nranks t - 1 do close_rank t ~rank done

let result t =
  close t;
  let report =
    match t.divergence with
    | Some report -> report
    | None -> Overlay.report_of_rounds t.tree ~agreed:t.agreed None
  in
  ( report,
    { events = t.events; drained = t.drained; max_in_flight = t.max_in_flight }
  )

let attach_engine t engine =
  if Mpisim.Engine.nranks engine <> nranks t then
    invalid_arg "Stream.attach_engine: rank-count mismatch";
  Mpisim.Engine.set_retention engine false;
  Mpisim.Engine.subscribe engine (fun ~rank event -> push t ~rank event)

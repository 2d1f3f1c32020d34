(** Promise/stream worker pool over OCaml 5 domains (see the interface). *)

module Promise = struct
  type 'a state = Pending | Done of 'a | Failed of exn

  type 'a t = {
    mutex : Mutex.t;
    cond : Condition.t;
    mutable state : 'a state;
  }

  let create () =
    { mutex = Mutex.create (); cond = Condition.create (); state = Pending }

  let fill t state =
    Mutex.lock t.mutex;
    (match t.state with
    | Pending ->
        t.state <- state;
        Condition.broadcast t.cond
    | Done _ | Failed _ -> ());
    Mutex.unlock t.mutex

  let resolve t v = fill t (Done v)

  let reject t e = fill t (Failed e)

  let await t =
    Mutex.lock t.mutex;
    while t.state = Pending do
      Condition.wait t.cond t.mutex
    done;
    let state = t.state in
    Mutex.unlock t.mutex;
    match state with
    | Done v -> v
    | Failed e -> raise e
    | Pending -> assert false

  let is_resolved t =
    Mutex.lock t.mutex;
    let r = t.state <> Pending in
    Mutex.unlock t.mutex;
    r
end

module Stream = struct
  type 'a t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    nonfull : Condition.t;
    queue : 'a Queue.t;
    capacity : int;
    mutable closed : bool;
  }

  let create capacity =
    if capacity < 1 then invalid_arg "Stream.create: capacity must be >= 1";
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      queue = Queue.create ();
      capacity;
      closed = false;
    }

  let push t v =
    Mutex.lock t.mutex;
    while Queue.length t.queue >= t.capacity && not t.closed do
      Condition.wait t.nonfull t.mutex
    done;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Stream.push: stream is closed"
    end;
    Queue.push v t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let pop t =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.nonempty t.mutex
    done;
    let v = Queue.take_opt t.queue in
    if v <> None then Condition.signal t.nonfull;
    Mutex.unlock t.mutex;
    v

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Condition.broadcast t.nonfull;
    Mutex.unlock t.mutex

  let length t =
    Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    Mutex.unlock t.mutex;
    n
end

module Workq = struct
  type 'a t = { batches : 'a array array array; next : int Atomic.t array }

  let create batches =
    {
      batches;
      next = Array.init (Array.length batches) (fun _ -> Atomic.make 0);
    }

  let shards t = Array.length t.batches

  let take t ~shard =
    let row = t.batches.(shard) in
    let i = Atomic.fetch_and_add t.next.(shard) 1 in
    if i < Array.length row then Some row.(i) else None

  let steal t ~preferred =
    let n = shards t in
    let rec scan k =
      if k >= n then None
      else
        let shard = (preferred + k) mod n in
        match take t ~shard with
        | Some batch -> Some (shard, batch)
        | None -> scan (k + 1)
    in
    if n = 0 then None else scan 0
end

type t = {
  stream : (unit -> unit) Stream.t;
  workers : unit Domain.t array;
  njobs : int;
  shut : Mutex.t;
  mutable down : bool;
}

let worker stream () =
  let rec loop () =
    match Stream.pop stream with
    | Some job ->
        job ();
        loop ()
    | None -> ()
  in
  loop ()

let create ?queue_capacity ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let capacity =
    match queue_capacity with Some c -> c | None -> max 64 (jobs * 4)
  in
  let stream = Stream.create capacity in
  {
    stream;
    workers = Array.init jobs (fun _ -> Domain.spawn (worker stream));
    njobs = jobs;
    shut = Mutex.create ();
    down = false;
  }

let jobs t = t.njobs

let submit t f =
  let p = Promise.create () in
  Stream.push t.stream (fun () ->
      match f () with
      | v -> Promise.resolve p v
      | exception e -> Promise.reject p e);
  p

let run t f = Promise.await (submit t f)

let shutdown t =
  Mutex.lock t.shut;
  let first = not t.down in
  t.down <- true;
  Mutex.unlock t.shut;
  if first then begin
    Stream.close t.stream;
    Array.iter Domain.join t.workers
  end

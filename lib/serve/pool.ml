(** Request queue over OCaml 5 domains (see the interface). *)

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  queue : (unit -> unit) Queue.t;
  capacity : int;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let submit t job =
  Mutex.lock t.mutex;
  while Queue.length t.queue >= t.capacity && not t.closed do
    Condition.wait t.nonfull t.mutex
  done;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push job t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* Blocking pop; [None] once the pool is closed and the backlog drained. *)
let pop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.nonempty t.mutex
  done;
  let job = Queue.take_opt t.queue in
  if job <> None then Condition.signal t.nonfull;
  Mutex.unlock t.mutex;
  job

let rec worker t () =
  match pop t with
  | Some job ->
      (try job () with _ -> ());
      worker t ()
  | None -> ()

let create ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      queue = Queue.create ();
      capacity = max 64 (jobs * 4);
      closed = false;
      workers = [||];
    }
  in
  t.workers <- Array.init jobs (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let first = not t.closed in
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.nonfull;
  Mutex.unlock t.mutex;
  if first then Array.iter Domain.join t.workers

(** Bounded, thread-safe FIFO summary cache (see the interface). *)

type entry = {
  func : Minilang.Ast.func;
  report : Parcoach.Driver.func_report;
  mutable json : string option;
}

let entry func report = { func; report; json = None }

type t = {
  lock : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  order : string Queue.t;  (** Insertion order; may hold stale keys. *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 256;
    order = Queue.create ();
    capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          t.hits <- t.hits + 1;
          Some e
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t key e =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        Hashtbl.replace t.tbl key e;
        Queue.push key t.order;
        while Hashtbl.length t.tbl > t.capacity do
          (* The queue can hold keys already evicted and re-added; only
             count an eviction when the key is still live. *)
          match Queue.take_opt t.order with
          | None -> Hashtbl.reset t.tbl (* unreachable: tbl non-empty *)
          | Some old ->
              if Hashtbl.mem t.tbl old then begin
                Hashtbl.remove t.tbl old;
                t.evictions <- t.evictions + 1
              end
        done
      end)

let replace t key e =
  with_lock t (fun () ->
      (* Only refresh live entries: inserting here would bypass the
         eviction queue.  Racing with an eviction just loses the
         refresh, which is harmless. *)
      if Hashtbl.mem t.tbl key then Hashtbl.replace t.tbl key e)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.tbl;
        evictions = t.evictions;
      })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.tbl;
      Queue.clear t.order;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

(** Bounded, thread-safe FIFO summary cache and the summary-reuse
    protocol (see the interface). *)

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

let analyze t ~options ?jobs ?digest ?summary ?timings program =
  let keys =
    Parcoach.Timings.record_opt timings "hash" (fun () ->
        Hash.keys ?digest ?summary ~options program)
  in
  (* The common hit is the very AST the entry was stored with (the
     daemon's chunk cache hands back the same value at a stable
     position): it needs neither the structural-equality guard against
     digest collisions nor relocation.  Any other hit must be
     structurally equal and is relocated onto the fresh function's
     source layout, so the merged report is byte-identical to a cold
     run, then written back so repeated lookups at this layout hit
     physically.  The fragment memo stays with an unchanged report and
     is dropped with a relocated one.  Names are unique in a valid
     program, so they identify the hits. *)
  let cached = Hashtbl.create (List.length keys) in
  List.iter
    (fun ((f : Minilang.Ast.func), key) ->
      match find t key with
      | Some e when e.func == f -> Hashtbl.replace cached f.fname e
      | Some e -> (
          match Relocate.func_report ~cached:e.func ~fresh:f e.report with
          | None -> ()
          | Some fr ->
              let e =
                if fr == e.report then { e with func = f } else entry f fr
              in
              replace t key e;
              Hashtbl.replace cached f.fname e)
      | None -> ())
    keys;
  let reuse (f : Minilang.Ast.func) =
    Option.map (fun e -> e.report) (Hashtbl.find_opt cached f.fname)
  in
  let report =
    Parcoach.Driver.analyze ~options ?jobs ~reuse ?summary ?timings program
  in
  let entries =
    List.map2
      (fun ((f : Minilang.Ast.func), key) fr ->
        match Hashtbl.find_opt cached f.fname with
        | Some e -> e
        | None ->
            let e = entry f fr in
            add t key e;
            e)
      keys report.Parcoach.Driver.funcs
  in
  (report, entries, Hashtbl.length cached)

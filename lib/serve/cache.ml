(** Bounded, thread-safe FIFO summary cache and the summary-reuse
    protocol (see the interface). *)

type entry = {
  func : Minilang.Ast.func;
  report : Parcoach.Driver.func_report;
  mutable json : string option;
}

let entry func report = { func; report; json = None }

module Strtbl = Hashtbl.Make (String)

type t = {
  lock : Mutex.t;
  tbl : entry Strtbl.t;
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
    tbl = Strtbl.create 256;
    order = Queue.create ();
    capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Adds [e] under [key] unless the key is live, evicting the oldest
   entries beyond [capacity].  The caller holds the lock. *)
let add_locked t key e =
  if not (Strtbl.mem t.tbl key) then begin
    Strtbl.replace t.tbl key e;
    Queue.push key t.order;
    while Strtbl.length t.tbl > t.capacity do
      (* The queue can hold keys already evicted and re-added; only
         count an eviction when the key is still live. *)
      match Queue.take_opt t.order with
      | None -> Strtbl.reset t.tbl (* unreachable: tbl non-empty *)
      | Some old ->
          if Strtbl.mem t.tbl old then begin
            Strtbl.remove t.tbl old;
            t.evictions <- t.evictions + 1
          end
    done
  end

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Strtbl.length t.tbl;
        evictions = t.evictions;
      })

let clear t =
  with_lock t (fun () ->
      Strtbl.reset t.tbl;
      Queue.clear t.order;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

(* What one [analyze] call derived, in source order, for the next call
   with the same carry.  [index] maps each name to its position. *)
type derived = {
  options : Parcoach.Driver.options;
  funcs : Minilang.Ast.func array;
  digests : string array;
  summaries : Parcoach.Callgraph.summary array;
  keys : string array;
  index : int Strtbl.t;
  closure : Parcoach.Callgraph.closure option;
  entries : entry array;
  report : Parcoach.Driver.report;
}

type carry = { mutable last : derived option }

let carry () = { last = None }

(* Each name's position (the last, as in {!Hash.keys}) and whether no
   name is defined twice. *)
let index_of funcs =
  let index = Strtbl.create (Array.length funcs) in
  let unique = ref true in
  Array.iteri
    (fun i (f : Minilang.Ast.func) ->
      if Strtbl.mem index f.fname then unique := false;
      Strtbl.replace index f.fname i)
    funcs;
  (index, !unique)

let no_summary = { Parcoach.Callgraph.direct_collective = false; calls = [] }

(* Each function's digest, summary and key (the bytes {!Hash.keys}
   gives), the name index, whether names are unique, and whether the
   interprocedural closure can differ from [prev]'s.  Against [prev]
   (same options), a function is dirty when it is new or its digest or
   call list changed; only the dirty functions and the functions that
   reach one through the call graph are keyed again.  (Both programs
   are valid, so every call names a function of its own program: an
   added or deleted function changes no unchanged function's callees.)
   A function that is physically [prev]'s keeps its digest and summary
   without asking the memos. *)
let derive_keys ?digest ?summary ~options ~prev funcs =
  let n = Array.length funcs in
  let memo m fallback f =
    match Option.bind m (fun m -> m f) with Some x -> x | None -> fallback f
  in
  (* [prev] lines up when it names the same functions in the same order. *)
  let aligned =
    match prev with
    | Some p ->
        Array.length p.funcs = n
        && Array.for_all2
             (fun (f : Minilang.Ast.func) (g : Minilang.Ast.func) ->
               f == g || String.equal f.fname g.fname)
             funcs p.funcs
    | None -> false
  in
  let index, unique =
    match prev with Some p when aligned -> (p.index, true) | _ -> index_of funcs
  in
  let prev = if unique then prev else None in
  let old i =
    match prev with
    | Some p when aligned -> Some (p, i)
    | Some p ->
        Option.map (fun j -> (p, j)) (Strtbl.find_opt p.index funcs.(i).fname)
    | None -> None
  in
  let digests = Array.make n "" and summaries = Array.make n no_summary in
  let dirty = Array.make n true and moved = ref (not aligned) in
  for i = 0 to n - 1 do
    let f = funcs.(i) in
    match old i with
    | Some (p, j) when p.funcs.(j) == f ->
        digests.(i) <- p.digests.(j);
        summaries.(i) <- p.summaries.(j);
        dirty.(i) <- false
    | o -> (
        let d = memo digest Hash.func_digest f
        and s = memo summary Parcoach.Callgraph.summary f in
        digests.(i) <- d;
        summaries.(i) <- s;
        match o with
        | None -> ()
        | Some (p, j) ->
            let s' = p.summaries.(j) in
            let same_calls = s.calls == s'.calls || s.calls = s'.calls in
            dirty.(i) <- not (same_calls && String.equal d p.digests.(j));
            if not (same_calls && s.direct_collective = s'.direct_collective)
            then moved := true)
  done;
  let keys =
    match prev with
    | Some p when aligned && not (Array.mem true dirty) -> p.keys
    | _ ->
        let callees =
          Array.map
            (fun (s : Parcoach.Callgraph.summary) ->
              List.filter (Strtbl.mem index) s.calls)
            summaries
        in
        (* The dirty functions and everything that reaches one, through
           reverse call edges. *)
        let affected = Array.copy dirty in
        if prev <> None then begin
          let callers = Array.make n [] in
          Array.iteri
            (fun i cs ->
              List.iter
                (fun g ->
                  let j = Strtbl.find index g in
                  callers.(j) <- i :: callers.(j))
                cs)
            callees;
          let rec visit i =
            List.iter
              (fun c ->
                if not affected.(c) then begin
                  affected.(c) <- true;
                  visit c
                end)
              callers.(i)
          in
          Array.iteri (fun i d -> if d then visit i) dirty
        end;
        let options_digest = Hash.options_digest options in
        let digest_of g = digests.(Strtbl.find index g) in
        let callees_of g = callees.(Strtbl.find index g) in
        Array.init n (fun i ->
            match old i with
            | Some (p, j) when not affected.(i) -> p.keys.(j)
            | _ ->
                Hash.key ~options_digest ~digest_of ~callees_of
                  funcs.(i).Minilang.Ast.fname)
  in
  (digests, summaries, index, unique, keys, !moved)

let analyze t ~options ?jobs ?digest ?summary ?carry ?timings
    (program : Minilang.Ast.program) =
  let record phase f = Parcoach.Timings.record_opt timings phase f in
  let funcs, prev, (digests, summaries, index, unique, keys, moved) =
    record "hash" (fun () ->
        let funcs = Array.of_list program.funcs in
        let prev =
          match carry with
          | Some { last = Some p } when p.options = options -> Some p
          | _ -> None
        in
        ( funcs,
          prev,
          match prev with
          | Some p
            when Array.length p.funcs = Array.length funcs
                 && Array.for_all2 ( == ) funcs p.funcs ->
              (p.digests, p.summaries, p.index, true, p.keys, false)
          | _ -> derive_keys ?digest ?summary ~options ~prev funcs ))
  in
  (* One locked pass looks every key up.  The common hit is the very AST
     the entry was stored with (the daemon's chunk cache hands back the
     same value at a stable position): it needs neither the
     structural-equality guard against digest collisions nor
     relocation.  Any other hit must be structurally equal and is
     relocated onto the fresh function's source layout, so the merged
     report is byte-identical to a cold run, then written back so
     repeated lookups at this layout hit physically.  The fragment memo
     stays with an unchanged report and is dropped with a relocated
     one.  When every function hits the entry [prev] ended with and the
     closure is [prev]'s, so is the report. *)
  let hits, carried =
    record "lookup" (fun () ->
        let found =
          with_lock t (fun () ->
              Array.map
                (fun key ->
                  match Strtbl.find_opt t.tbl key with
                  | Some e ->
                      t.hits <- t.hits + 1;
                      Some e
                  | None ->
                      t.misses <- t.misses + 1;
                      None)
                keys)
        in
        let rewritten = ref [] in
        let hits =
          Array.mapi
            (fun i found ->
              let f = funcs.(i) in
              match found with
              | Some e when e.func == f -> Some e
              | Some e ->
                  Option.map
                    (fun fr ->
                      let e =
                        if fr == e.report then { e with func = f }
                        else entry f fr
                      in
                      rewritten := (keys.(i), e) :: !rewritten;
                      e)
                    (Relocate.func_report ~cached:e.func ~fresh:f e.report)
              | None -> None)
            found
        in
        (* Only live entries are refreshed: inserting here would bypass
           the eviction queue. *)
        if !rewritten <> [] then
          with_lock t (fun () ->
              List.iter
                (fun (key, e) ->
                  if Strtbl.mem t.tbl key then Strtbl.replace t.tbl key e)
                !rewritten);
        let carried =
          match prev with
          | Some p
            when (not moved)
                 && Array.length p.entries = Array.length hits
                 && Array.for_all2
                      (fun h e -> match h with Some h -> h == e | None -> false)
                      hits p.entries ->
              Some { p.report with program }
          | _ -> None
        in
        (hits, carried))
  in
  let closure =
    match prev with
    | _ when not options.interprocedural -> None
    | Some p when not moved -> p.closure
    | _ ->
        let summary (f : Minilang.Ast.func) =
          match Strtbl.find_opt index f.fname with
          | Some i when funcs.(i) == f -> Some summaries.(i)
          | _ -> None
        in
        Some
          (record "closure" (fun () ->
               Parcoach.Callgraph.closure ~summary program))
  in
  let report =
    match carried with
    | Some report -> report
    | None ->
        let reuse (f : Minilang.Ast.func) =
          match Strtbl.find_opt index f.fname with
          | Some i when funcs.(i) == f ->
              Option.map (fun (e : entry) -> e.report) hits.(i)
          | _ -> None
        in
        Parcoach.Driver.analyze ~options ?jobs ~reuse ?closure ?timings
          program
  in
  (* The misses' entries are added in source order. *)
  record "lookup" (fun () ->
      let reports = Array.of_list report.funcs in
      let added = ref [] and reused = ref 0 in
      let entries =
        Array.mapi
          (fun i h ->
            match h with
            | Some e ->
                incr reused;
                e
            | None ->
                let e = entry funcs.(i) reports.(i) in
                added := (keys.(i), e) :: !added;
                e)
          hits
      in
      if !added <> [] then
        with_lock t (fun () ->
            List.iter (fun (key, e) -> add_locked t key e) (List.rev !added));
      Option.iter
        (fun c ->
          c.last <-
            (if unique then
               Some
                 {
                   options;
                   funcs;
                   digests;
                   summaries;
                   keys;
                   index;
                   closure;
                   entries;
                   report;
                 }
             else None))
        carry;
      (report, Array.to_list entries, !reused))

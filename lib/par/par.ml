(** Domain fan-out with per-shard atomic claims (see the interface). *)

let iter_shards ~jobs sizes f =
  if jobs < 1 then invalid_arg "Par.iter_shards: jobs must be >= 1";
  let total = Array.fold_left ( + ) 0 sizes in
  let nshards = Array.length sizes in
  let next = Array.init nshards (fun _ -> Atomic.make 0) in
  let stolen = Atomic.make 0 in
  (* The lowest failing (shard, i) so far; its presence stops claims. *)
  let failure = Atomic.make None in
  let rec record key exn bt =
    match Atomic.get failure with
    | Some (k, _, _) when k <= key -> ()
    | cur ->
        if not (Atomic.compare_and_set failure cur (Some (key, exn, bt))) then
          record key exn bt
  in
  (* Check for a failure before claiming, never after: a claimed item
     always runs, so every item below a failing one in its shard runs. *)
  let rec drain w s =
    if Option.is_none (Atomic.get failure) then begin
      let i = Atomic.fetch_and_add next.(s) 1 in
      if i < sizes.(s) then begin
        if s mod jobs <> w then Atomic.incr stolen;
        (try f ~worker:w ~shard:s i
         with exn -> record (s, i) exn (Printexc.get_raw_backtrace ()));
        drain w s
      end
    end
  in
  let worker w =
    let s = ref w in
    while !s < nshards do
      drain w !s;
      s := !s + jobs
    done;
    for k = 0 to nshards - 1 do
      drain w ((w + k) mod nshards)
    done
  in
  let helpers = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter Domain.join !helpers)
    (fun () ->
      for w = 1 to min jobs total - 1 do
        helpers := Domain.spawn (fun () -> worker w) :: !helpers
      done;
      worker 0);
  match Atomic.get failure with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> Atomic.get stolen

let iter ~jobs n f =
  ignore (iter_shards ~jobs [| n |] (fun ~worker ~shard:_ i -> f ~worker i))

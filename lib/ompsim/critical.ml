(** Named critical-section locks.

    OpenMP [critical] sections with the same name exclude each other across
    all teams of a process; the anonymous critical uses a reserved name.
    A per-process lock table maps each name to its holder and FIFO wait
    queue. *)

let anonymous = "<anonymous>"

type lock = { mutable holder : int option; waiters : int Queue.t }

type t = (string, lock) Hashtbl.t

let create () : t = Hashtbl.create 8

let get_lock t name =
  match Hashtbl.find_opt t name with
  | Some l -> l
  | None ->
      let l = { holder = None; waiters = Queue.create () } in
      Hashtbl.replace t name l;
      l

type acquire_result = Acquired | Must_wait

(** [acquire t ~name ~cookie]: take the lock or enqueue the caller. *)
let acquire t ~name ~cookie =
  let l = get_lock t name in
  match l.holder with
  | None ->
      l.holder <- Some cookie;
      Acquired
  | Some _ ->
      Queue.add cookie l.waiters;
      Must_wait

(** [release t ~name ~cookie] frees the lock and returns the next waiter to
    resume (which then holds the lock), if any.
    @raise Invalid_argument if [cookie] does not hold the lock. *)
let release t ~name ~cookie =
  let l = get_lock t name in
  (match l.holder with
  | Some h when h = cookie -> ()
  | _ -> invalid_arg "Critical.release: caller does not hold the lock");
  if Queue.is_empty l.waiters then begin
    l.holder <- None;
    None
  end
  else begin
    let next = Queue.pop l.waiters in
    l.holder <- Some next;
    Some next
  end

(** Deterministic snapshot of the lock table — (name, holder, FIFO wait
    queue) sorted by name, empty locks elided.  The wait-queue order is
    semantic state (it decides who acquires next), so state fingerprints
    fold over this snapshot. *)
let state t =
  if Hashtbl.length t = 0 then []
  else
    Hashtbl.fold
      (fun name l acc ->
        if l.holder = None && Queue.is_empty l.waiters then acc
        else (name, l.holder, List.of_seq (Queue.to_seq l.waiters)) :: acc)
      t []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(** Cookies blocked on any lock, for deadlock diagnostics. *)
let blocked t =
  Hashtbl.fold
    (fun _ l acc -> List.of_seq (Queue.to_seq l.waiters) @ acc)
    t []

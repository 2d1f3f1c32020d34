(** Per-phase wall-clock accounting (see the interface).  Durations are
    measured with [Unix.gettimeofday] — the phases being timed (parsing,
    CFG construction, the analysis passes) are all well above the
    microsecond resolution this offers. *)

type t = {
  lock : Mutex.t;
  mutable rows : (string * float) list;  (** ns, first-recorded order. *)
}

let create () = { lock = Mutex.create (); rows = [] }

let add_ns t phase ns =
  Mutex.lock t.lock;
  let rec bump = function
    | [] -> [ (phase, ns) ]
    | (p, acc) :: rest when String.equal p phase -> (p, acc +. ns) :: rest
    | row :: rest -> row :: bump rest
  in
  t.rows <- bump t.rows;
  Mutex.unlock t.lock

let record t phase f =
  let t0 = Unix.gettimeofday () in
  let finish () = add_ns t phase ((Unix.gettimeofday () -. t0) *. 1e9) in
  match f () with
  | v ->
      finish ();
      v
  | exception exn ->
      finish ();
      raise exn

let record_opt t phase f =
  match t with None -> f () | Some t -> record t phase f

let entries t =
  Mutex.lock t.lock;
  let rows = t.rows in
  Mutex.unlock t.lock;
  rows

let total_ns t = List.fold_left (fun acc (_, ns) -> acc +. ns) 0. (entries t)

let pp ppf t =
  List.iter
    (fun (phase, ns) -> Fmt.pf ppf "%-10s %10.3f ms@\n" phase (ns /. 1e6))
    (entries t);
  Fmt.pf ppf "%-10s %10.3f ms@\n" "total" (total_ns t /. 1e6)

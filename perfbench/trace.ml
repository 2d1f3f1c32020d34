(* Span and counter recorder for the traced run.

   A span is recorded around each call the benchmark makes into a
   layer's public functions: name, start, end, the enclosing span and the
   op it belongs to.  Spans stay in memory until the run ends.  Layers
   reachable only inside one public call (Parcoach.Driver's phases, the
   daemon's cache, the farm's stages) report through counters filled
   from the Timings accumulators and stats records those calls return.

   When the recorder is disabled, [span] is a plain call. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a top-level span. *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable enabled : bool;
  mutable op : int;
  mutable stack : int list;
  mutable next : int;
  mutable spans : span list;  (** Most recent first. *)
  counters : (string, float) Hashtbl.t;
}

let create () =
  {
    enabled = false;
    op = 0;
    stack = [];
    next = 0;
    spans = [];
    counters = Hashtbl.create 64;
  }

let now = Unix.gettimeofday

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = now () in
    let close () =
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; op = t.op; name; t0; t1 = now () } :: t.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Counters only accumulate while tracing, so they cover exactly the
   traced ops. *)
let add t name v =
  if t.enabled then
    Hashtbl.replace t.counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt t.counters name))

let count t name n = add t name (float_of_int n)

(* A gauge: keeps the largest value seen. *)
let peak t name n =
  if t.enabled then
    Hashtbl.replace t.counters name
      (Float.max (float_of_int n)
         (Option.value ~default:0. (Hashtbl.find_opt t.counters name)))

let counter t name = Option.value ~default:0. (Hashtbl.find_opt t.counters name)

(* Add every phase of a Timings accumulator, in milliseconds, under
   [rename phase] (phases mapped to [None] are skipped). *)
let add_timings t tm rename =
  List.iter
    (fun (phase, ns) ->
      match rename phase with
      | Some name -> add t name (ns /. 1e6)
      | None -> ())
    (Parcoach.Timings.entries tm)

(* Self time per span name, in milliseconds: each span's duration minus
   the durations of its direct children (spans are strictly nested on
   the one thread that records them). *)
let self_ms t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let inner = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let ms = (s.t1 -. s.t0 -. inner) *. 1e3 in
      Hashtbl.replace self s.name
        (ms +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    t.spans;
  self

(* One JSON object per span, oldest first. *)
let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.op s.name s.t0 s.t1)
    (List.rev t.spans);
  close_out oc

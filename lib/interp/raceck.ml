(** Dynamic data-race oracle for the simulator: a
    vector-clock happens-before checker in the FastTrack style, adapted to
    the simulator's cooperative tasks.

    Every task (one per rank, plus one per thread forked at a [parallel]
    construct) carries a vector clock.  Synchronisation observed by the
    runtime induces the happens-before edges:

    - {b fork}: the child starts with the forker's clock;
    - {b join}: the forker absorbs each finishing member's clock;
    - {b barrier}: every participant absorbs the pointwise maximum of all
      participants' clocks (accesses across the barrier are ordered,
      accesses between two releases are not);
    - {b critical}: each per-rank named lock carries the clock of its
      last release; acquiring absorbs it.

    Storage locations are keyed by (frame identity, slot): the simulator
    records, per executed statement, the slot accesses the lowering
    extracted (see {!Compile.access}).  Each location remembers its last
    write epoch and the reads since; an access unordered with a prior
    conflicting access is a race.  Point-to-point sends and MPI
    collectives deliberately induce {e no} edges here — they order
    ranks, not the threads of one rank, and ranks never share frames.
    (The DPOR recorder additionally feeds completed collectives through
    {!barrier} for its cross-rank happens-before test; its bounded
    recording window keeps that join cheap.)

    The oracle is a validation harness for the static {!Parcoach.Races}
    pass: every race it observes on a run must be covered by a static
    warning with the same variable and sites. *)

type epoch = { e_task : int; e_clock : int; e_site : string }

type slot_state = {
  mutable last_write : epoch option;
  mutable reads : epoch list;  (** Reads since the last write, one
                                   (latest) per task. *)
}

type race = {
  rc_var : string;
  rc_rank : int;
  rc_site1 : string;
  rc_write1 : bool;
  rc_site2 : string;
  rc_write2 : bool;
}

type t = {
  mutable clocks : int array array;  (** Task id → vector clock. *)
  locks : (int * string, int array) Hashtbl.t;
      (** (rank, critical name) → clock of the last release. *)
  slots : (int * int, slot_state) Hashtbl.t;  (** (frame fid, slot). *)
  mutable next_fid : int;
  mutable races : race list;
  dedup : (string * string * string, unit) Hashtbl.t;
}

let create () =
  {
    clocks = Array.make 16 [||];
    locks = Hashtbl.create 16;
    slots = Hashtbl.create 256;
    next_fid = 0;
    races = [];
    dedup = Hashtbl.create 16;
  }

(* --- vector clocks ------------------------------------------------- *)

let grow a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let vc_of r task =
  if task >= Array.length r.clocks then begin
    let c = Array.make (max (task + 1) (2 * Array.length r.clocks)) [||] in
    Array.blit r.clocks 0 c 0 (Array.length r.clocks);
    r.clocks <- c
  end;
  let vc = grow r.clocks.(task) (task + 1) in
  r.clocks.(task) <- vc;
  vc

let vc_get vc t = if t < Array.length vc then vc.(t) else 0

(* [a ⊔= b], growing [a] as needed; returns the (possibly new) array. *)
let vc_join a b =
  let a = grow a (Array.length b) in
  Array.iteri (fun i v -> if v > a.(i) then a.(i) <- v) b;
  a

let tick r task =
  let vc = vc_of r task in
  vc.(task) <- vc.(task) + 1

let fork r ~parent ~child =
  let pvc = vc_of r parent in
  r.clocks.(child) <- vc_join (vc_of r child) pvc;
  tick r child;
  tick r parent

let join r ~parent ~child =
  let cvc = vc_of r child in
  r.clocks.(parent) <- vc_join (vc_of r parent) cvc;
  tick r parent

(* All participants meet: each restarts from the pointwise maximum, then
   ticks, so pre-barrier accesses order before post-barrier ones while
   post-barrier accesses of distinct tasks stay concurrent. *)
let barrier r tasks =
  match tasks with
  | [] -> ()
  | t0 :: rest ->
      let m = ref (Array.copy (vc_of r t0)) in
      List.iter (fun t -> m := vc_join !m (vc_of r t)) rest;
      List.iter
        (fun t ->
          r.clocks.(t) <- vc_join (vc_of r t) !m;
          tick r t)
        tasks

let acquire r ~task ~rank ~name =
  match Hashtbl.find_opt r.locks (rank, name) with
  | None -> ()
  | Some lvc -> r.clocks.(task) <- vc_join (vc_of r task) lvc

let release r ~task ~rank ~name =
  Hashtbl.replace r.locks (rank, name) (Array.copy (vc_of r task));
  tick r task

(* --- accesses ------------------------------------------------------ *)

let clock r task = Array.copy (vc_of r task)

let clock_value r task = (vc_of r task).(task)

let fresh_fid r =
  let id = r.next_fid in
  r.next_fid <- id + 1;
  id

let fid_of r (fr : Compile.frame) =
  if fr.Compile.fid >= 0 then fr.Compile.fid
  else begin
    let id = r.next_fid in
    r.next_fid <- id + 1;
    fr.Compile.fid <- id;
    id
  end

let ordered_before vc (e : epoch) = e.e_clock <= vc_get vc e.e_task

let report r ~var ~rank (e : epoch) ~ew ~site ~write =
  (* Order the two sites so symmetric observations dedup together. *)
  let s1, w1, s2, w2 =
    if e.e_site <= site then (e.e_site, ew, site, write)
    else (site, write, e.e_site, ew)
  in
  let key = (var, s1, s2) in
  if not (Hashtbl.mem r.dedup key) then begin
    Hashtbl.replace r.dedup key ();
    r.races <-
      {
        rc_var = var;
        rc_rank = rank;
        rc_site1 = s1;
        rc_write1 = w1;
        rc_site2 = s2;
        rc_write2 = w2;
      }
      :: r.races
  end

let access r ~task ~rank ~site ~frame (a : Compile.access) =
  let fr = Compile.up frame a.Compile.a_hops in
  let key = (fid_of r fr, a.Compile.a_slot) in
  let st =
    match Hashtbl.find_opt r.slots key with
    | Some st -> st
    | None ->
        let st = { last_write = None; reads = [] } in
        Hashtbl.replace r.slots key st;
        st
  in
  let vc = vc_of r task in
  let var = a.Compile.a_name in
  let check_write_conflict () =
    match st.last_write with
    | Some e when e.e_task <> task && not (ordered_before vc e) ->
        report r ~var ~rank e ~ew:true ~site ~write:a.Compile.a_write
    | _ -> ()
  in
  if a.Compile.a_write then begin
    check_write_conflict ();
    List.iter
      (fun e ->
        if e.e_task <> task && not (ordered_before vc e) then
          report r ~var ~rank e ~ew:false ~site ~write:true)
      st.reads;
    st.last_write <- Some { e_task = task; e_clock = vc.(task); e_site = site };
    st.reads <- []
  end
  else begin
    check_write_conflict ();
    st.reads <-
      { e_task = task; e_clock = vc.(task); e_site = site }
      :: List.filter (fun e -> e.e_task <> task) st.reads
  end

let races r = List.rev r.races

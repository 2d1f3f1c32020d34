(** The hybrid MPI+OpenMP execution simulator.

    [run] executes a validated program on [nranks] simulated MPI processes,
    each potentially forking OpenMP teams.  Every rank×thread is a
    {!Task.t}; a seeded scheduler advances one task per step, so
    interleavings are reproducible and errors that depend on timing (two
    [single] regions overlapping, threads racing into collectives) can be
    exhibited deterministically in tests.

    The program is lowered once by {!Compile} ([make]) and executed by
    [run_compiled] ([run] is [make]+[run_compiled]): no AST dispatch, no
    string-keyed environment lookups, no per-step site-string allocation,
    and a scheduler that draws from a runnable queue kept up to date at
    status transitions.

    Error taxonomy:
    - {!outcome.Aborted}: an instrumentation check ([CC] agreement or
      concurrency counter) stopped the program cleanly {e before} the
      faulty collective executed — the behaviour the paper's §3 aims for;
    - {!outcome.Fault}: the simulated MPI library itself hit the error
      (signature mismatch at the rendezvous, a second collective arrival
      from a non-synchronized thread, an evaluation error);
    - {!outcome.Deadlock}: no task can run — e.g. ranks waiting in
      different collectives or a team that never fills a barrier. *)

open Minilang

type error =
  | Mismatch of Mpisim.Engine.rank_call list
      (** Ranks met in collectives with different signatures. *)
  | Cc_divergence of Mpisim.Engine.rank_call list
      (** The CC agreement found diverging next-collective colours. *)
  | Concurrent_collective of { rank : int; site1 : string; site2 : string }
      (** Two threads of one rank had collectives in flight at once. *)
  | Concurrent_region of { rank : int; region : int; site : string }
      (** A concurrency counter (set [Scc]/[Sipw] check) exceeded 1. *)
  | Multithreaded_region of { rank : int; site : string }
      (** A strict monothreading assertion failed. *)
  | Eval_error of { rank : int; site : string; message : string }
  | Level_violation of {
      rank : int;
      site : string;
      required : Mpisim.Thread_level.t;
      provided : Mpisim.Thread_level.t;
    }
      (** A collective was issued from a threading context the initialised
          MPI thread level does not permit. *)

type outcome =
  | Finished
  | Aborted of error  (** Clean stop by a verification check. *)
  | Fault of error  (** The error reached the MPI library. *)
  | Deadlock of string list  (** Descriptions of the blocked tasks. *)
  | Step_limit

type stats = {
  mutable steps : int;
  mutable work : int;  (** Total [compute] cost executed. *)
  mutable counter_checks : int;
  mutable cc_calls : int;
  mutable tasks_spawned : int;
  mutable trace : (int * int * int) list;  (** (rank, tid, value), reversed. *)
  degrees : int array;
      (** Runnable-task counts at the first scheduling steps, preallocated
          and in step order ([ndegrees] entries are valid): the branching
          structure {!Explore} enumerates. *)
  mutable ndegrees : int;
}

(** Request-lifecycle violations observed at run time — the dynamic half
    of the [Parcoach.Requests] oracle.  Recorded (deduplicated,
    Raceck-style), never aborting: the run continues so one execution can
    witness several violations. *)
type lifecycle =
  | Leaked_request of { rank : int; site : string }
      (** Started at [site], never completed when the rank finished. *)
  | Double_wait of { rank : int; site : string; start_site : string }
      (** [MPI_Wait]/[MPI_Test] on an already-completed request. *)
  | Stale_read of { rank : int; site : string; start_site : string }
      (** The destination buffer of an in-flight [MPI_Irecv] /
          [MPI_Iallreduce] was accessed before its completion. *)

type result = {
  outcome : outcome;
  stats : stats;
  engine : Mpisim.Engine.t;
  lifecycle : lifecycle list;  (** Violations, in discovery order. *)
}

type config = {
  nranks : int;
  default_nthreads : int;  (** Team size when [num_threads] is absent. *)
  schedule : [ `Round_robin | `Random of int | `Scripted of int list ];
      (** [`Scripted choices]: at step [k] pick the [choices[k]]-th runnable
          task (modulo the runnable count); after the script is exhausted,
          fall back to round-robin.  Used by {!Explore}. *)
  max_steps : int;
  entry : string;
  record_trace : bool;
  thread_level : Mpisim.Thread_level.t;
      (** Level the simulated MPI library was initialised with; collectives
          from contexts requiring more are rejected. *)
}

let default_config =
  {
    nranks = 4;
    default_nthreads = 4;
    schedule = `Random 42;
    max_steps = 2_000_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

exception Abort_exn of outcome

(* ------------------------------------------------------------------ *)
(* Exploration probe: per-step state fingerprints                       *)
(* ------------------------------------------------------------------ *)

(** Reusable exploration instrument: a preallocated buffer of state
    fingerprints for the first [fp_depth] scheduling steps of a run.
    [fingerprints.(k)] is a hash of the semantic simulator state after
    exactly [k] steps; {!Explore} treats two runs whose fingerprints
    agree at the same depth as having identical continuations.  Construct
    ids are the canonical statement uids of {!Compile}, stable across
    schedules, so fingerprints of different runs are comparable.  One
    probe serves many runs (one per exploration worker): [run] resets
    [fp_recorded] on entry and fills the buffer in place — no per-run
    allocation. *)
type probe = {
  fp_depth : int;
  fingerprints : int array;  (** Length [fp_depth + 1]. *)
  mutable fp_recorded : int;  (** Valid entries of the current run. *)
}

let make_probe ~depth =
  if depth < 0 then invalid_arg "Sim.make_probe: depth must be >= 0";
  { fp_depth = depth; fingerprints = Array.make (depth + 1) 0; fp_recorded = 0 }

let probe_depth p = p.fp_depth

let probe_recorded p = p.fp_recorded

let probe_fingerprint p k =
  if k < 0 || k >= p.fp_recorded then
    invalid_arg "Sim.probe_fingerprint: step not recorded";
  p.fingerprints.(k)

(* ------------------------------------------------------------------ *)
(* Simulator state                                                      *)
(* ------------------------------------------------------------------ *)

(* What a live request is for: a nonblocking-collective round, an eager
   [MPI_Isend] (always completable), or a pull-at-completion [MPI_Irecv].
   Scalar-only so the polymorphic hash covers it in fingerprints. *)
type rkind =
  | Rround of int  (** Nonblocking collective: engine round index. *)
  | Rsend
  | Rrecv of { r_src : int; r_tag : int }

(** One MPI request object.  Requests are per-process (per-rank) and
    shared by the rank's threads; a request variable's slot holds the
    dense [rid].  [rcell] is the destination buffer of an
    [MPI_Irecv]/[MPI_Iallreduce], written at {e completion} (the wait or
    a successful test), never at the start. *)
type request = {
  rid : int;
  rrank : int;
  rkind : rkind;
  rsite : string;  (** Site of the start call. *)
  mutable rdone : bool;
  mutable rcell : Compile.loc option;
}

(* The state of one run.  Tasks live in a dense growable array: ids are
   assigned 0,1,2,… in spawn order, so the id doubles as the array index
   and as the canonical scheduling-order position used by fingerprints.
   The scheduler draws from [rq]; the wake-up scans walk [live] instead
   of every task ever spawned. *)
type state = {
  config : config;
  engine : Mpisim.Engine.t;
  mailbox : Mpisim.Mailbox.t;
  criticals : Ompsim.Critical.t array;  (** Per-rank named locks. *)
  counters : (int * int, int) Hashtbl.t;  (** (rank, region) → live count. *)
  requests : (int * int, request) Hashtbl.t;  (** (rank, rid) → request. *)
  req_counts : int array;  (** Next request id, per rank. *)
  mutable lifecycle : lifecycle list;  (** Violations, newest first. *)
  stats : stats;
  mutable tasks : Task.t array;  (** [ntasks] valid, indexed by id. *)
  mutable ectxs : Compile.ectx array;  (** Per-task expression constants. *)
  mutable ntasks : int;
  mutable live : int array;
      (** Ids of tasks in spawn order ([nlive] valid), including finished
          ones not yet dropped: {!iter_live} drops them as it walks, and
          the end of the run compacts the rest. *)
  mutable nlive : int;
  mutable rq : int array;
      (** Ids of the [Runnable] tasks in ascending order ([nrq] valid):
          ids are assigned in spawn order, so this is the runnable list
          the scheduler draws from.  Kept by {!set_status} and {!spawn},
          never rebuilt. *)
  mutable nrq : int;
  mutable race : Raceck.t option;
      (** Dynamic race oracle; fed every slot access and the
          synchronisation the runtime executes.  Mutable so the DPOR
          driver can drop it once the recording window closes. *)
  mutable events : (Dpor.eobj -> unit) option;
      (** DPOR footprint sink: every visible operation of the current
          step reports its footprint here. *)
  fresh_fid : unit -> int;
      (** Creation-time frame identity for the DPOR recorder (frames of
          runs sharing a schedule prefix get equal ids); [-1] — the
          lazy-assignment sentinel — otherwise. *)
}

let emit_event st e = match st.events with Some f -> f e | None -> ()

(* ------------------------------------------------------------------ *)
(* Runnable queue                                                       *)
(* ------------------------------------------------------------------ *)

(* Spawns insert at the end: a new task's id is the largest so far. *)
let rq_insert st id =
  if st.nrq = Array.length st.rq then begin
    let rq = Array.make (2 * st.nrq) 0 in
    Array.blit st.rq 0 rq 0 st.nrq;
    st.rq <- rq
  end;
  let rq = st.rq in
  let i = ref st.nrq in
  while !i > 0 && rq.(!i - 1) > id do
    rq.(!i) <- rq.(!i - 1);
    decr i
  done;
  rq.(!i) <- id;
  st.nrq <- st.nrq + 1

let rq_remove st id =
  let rq = st.rq in
  let i = ref 0 in
  while rq.(!i) <> id do
    incr i
  done;
  Array.blit rq (!i + 1) rq !i (st.nrq - !i - 1);
  st.nrq <- st.nrq - 1

(** Every task status change goes through here, so the runnable queue
    changes exactly when a task enters or leaves [Runnable]. *)
let set_status st (task : Task.t) status =
  let was = Task.is_runnable task in
  task.Task.status <- status;
  match status with
  | Task.Runnable -> if not was then rq_insert st task.Task.id
  | Task.Blocked _ | Task.Finished -> if was then rq_remove st task.Task.id

let fail_eval rank site fmt =
  Printf.ksprintf
    (fun message ->
      raise (Abort_exn (Fault (Eval_error { rank; site; message }))))
    fmt

(* Identity element of each reduction operator over ints. *)
let reduction_identity = function
  | Ast.Rsum -> 0
  | Ast.Rprod -> 1
  | Ast.Rmax -> min_int
  | Ast.Rmin -> max_int
  | Ast.Rland -> 1
  | Ast.Rlor -> 0

let apply_reduce_op op a b =
  match op with
  | Ast.Rsum -> a + b
  | Ast.Rprod -> a * b
  | Ast.Rmax -> Int.max a b
  | Ast.Rmin -> Int.min a b
  | Ast.Rland -> if a <> 0 && b <> 0 then 1 else 0
  | Ast.Rlor -> if a <> 0 || b <> 0 then 1 else 0

let dummy_task = Task.make ~id:(-1) ~rank:(-1) ~tid:0 ~team:None ~konts:[]

let dummy_ectx =
  { Compile.e_rank = 0; e_tid = 0; e_nthreads = 1; e_nranks = 1 }

let spawn st ~rank ~tid ~team ~konts =
  let id = st.ntasks in
  if id >= Array.length st.tasks then begin
    let cap = 2 * Array.length st.tasks in
    let ts = Array.make cap dummy_task in
    Array.blit st.tasks 0 ts 0 id;
    st.tasks <- ts;
    let es = Array.make cap dummy_ectx in
    Array.blit st.ectxs 0 es 0 id;
    st.ectxs <- es;
    let live = Array.make cap 0 in
    Array.blit st.live 0 live 0 st.nlive;
    st.live <- live
  end;
  let t = Task.make ~id ~rank ~tid ~team ~konts in
  st.tasks.(id) <- t;
  st.ectxs.(id) <-
    {
      Compile.e_rank = rank;
      e_tid = tid;
      e_nthreads = Ompsim.Team.size_of team;
      e_nranks = st.config.nranks;
    };
  st.ntasks <- id + 1;
  st.live.(st.nlive) <- id;
  st.nlive <- st.nlive + 1;
  rq_insert st id;
  st.stats.tasks_spawned <- st.stats.tasks_spawned + 1;
  t

(* Unfinished tasks in spawn order; drops finished ones (finishing is
   terminal) from [live] while walking. *)
let iter_live st f =
  let tasks = st.tasks and ids = st.live in
  let kept = ref 0 in
  for i = 0 to st.nlive - 1 do
    let t = tasks.(ids.(i)) in
    match t.Task.status with
    | Task.Finished -> ()
    | Task.Runnable | Task.Blocked _ ->
        ids.(!kept) <- ids.(i);
        incr kept;
        f t
  done;
  st.nlive <- !kept

(* Register an arrival and, if the collective is now full, complete it. *)
let collective_arrive st (task : Task.t) call cell =
  emit_event st (Dpor.EColl { rank = task.Task.rank });
  task.Task.wait_cell <- cell;
  match
    Mpisim.Engine.arrive st.engine ~rank:task.Task.rank ~cookie:task.Task.id
      call
  with
  | Mpisim.Engine.Busy_rank { pending_site; pending_kind } ->
      let error =
        Concurrent_collective
          {
            rank = task.Task.rank;
            site1 = pending_site;
            site2 = call.Mpisim.Coll.site;
          }
      in
      (* If either side of the collision is a CC check, the instrumentation
         detected the race before both real collectives were in flight: a
         clean abort.  Two real collectives colliding is the fault
         itself. *)
      if
        call.Mpisim.Coll.kind = Mpisim.Coll.Cc_check
        || pending_kind = Mpisim.Coll.Cc_check
      then raise (Abort_exn (Aborted error))
      else raise (Abort_exn (Fault error))
  | Mpisim.Engine.Waiting -> (
      set_status st task
        (Task.Blocked
          (Task.At_collective
             {
               site = call.Mpisim.Coll.site;
               coll = Mpisim.Coll.kind_name call.Mpisim.Coll.kind;
             }));
      match Mpisim.Engine.try_complete st.engine with
      | None -> ()
      | Some (Mpisim.Engine.Completed { calls; results }) ->
          (* A completed collective is a rendezvous of its one-per-rank
             participants: when a DPOR recorder is listening, join their
             clocks (the cross-rank ordering the rendezvous enforces; it
             cannot hide intra-rank races since ranks never share
             frames).  The standalone race oracle keeps its documented
             no-collective-edges semantics — and the join would be
             quadratic there: it densifies the root clocks, which every
             later fork copies, where the recorder's window bounds the
             joined prefix. *)
          (match (st.race, st.events) with
          | Some r, Some _ ->
              Raceck.barrier r
                (List.map
                   (fun (rc : Mpisim.Engine.rank_call) ->
                     rc.Mpisim.Engine.cookie)
                   calls)
          | _ -> ());
          List.iter
            (fun (rc : Mpisim.Engine.rank_call) ->
              let t = st.tasks.(rc.Mpisim.Engine.cookie) in
              (match t.Task.wait_cell with
              | Some c -> Compile.write_loc c results.(rc.Mpisim.Engine.rank)
              | None -> ());
              t.Task.wait_cell <- None;
              set_status st t Task.Runnable)
            calls
      | Some (Mpisim.Engine.Mismatch calls) ->
          raise (Abort_exn (Fault (Mismatch calls)))
      | Some (Mpisim.Engine.Cc_divergence calls) ->
          raise (Abort_exn (Aborted (Cc_divergence calls))))

let barrier_arrive st task (team : Ompsim.Team.t) ~site =
  match Ompsim.Barrier.arrive team.Ompsim.Team.barrier ~cookie:task.Task.id with
  | Ompsim.Barrier.Wait ->
      set_status st task (Task.Blocked (Task.At_barrier { site }))
  | Ompsim.Barrier.Release cookies ->
      (match st.race with
      | Some r -> Raceck.barrier r (task.Task.id :: cookies)
      | None -> ());
      List.iter (fun c -> set_status st st.tasks.(c) Task.Runnable) cookies

(* The instrumentation checks (the paper's CC agreement and concurrency
   counters). *)
let cc_arrive st task ~color ~site =
  st.stats.cc_calls <- st.stats.cc_calls + 1;
  collective_arrive st task (Mpisim.Coll.cc_check ~color ~site) None

let check_assert_mono task ~site =
  if Task.team_size task > 1 && task.Task.single_depth = 0 then
    raise
      (Abort_exn (Aborted (Multithreaded_region { rank = task.Task.rank; site })))

let check_count_enter st task ~region ~site =
  emit_event st (Dpor.ECounter { rank = task.Task.rank; region });
  st.stats.counter_checks <- st.stats.counter_checks + 1;
  let key = (task.Task.rank, region) in
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt st.counters key) in
  Hashtbl.replace st.counters key n;
  if n > 1 then
    raise
      (Abort_exn
         (Aborted (Concurrent_region { rank = task.Task.rank; region; site })))

let check_count_exit st task ~region =
  emit_event st (Dpor.ECounter { rank = task.Task.rank; region });
  let key = (task.Task.rank, region) in
  let n = Option.value ~default:0 (Hashtbl.find_opt st.counters key) in
  Hashtbl.replace st.counters key (Int.max 0 (n - 1))

(* Dynamic thread-level requirement of the calling context: no team means
   the single initial thread; inside a [single]/[master]/[section] body one
   thread of the team calls MPI at a time (SERIALIZED — a conservative
   merge of FUNNELED and SERIALIZED); any other in-team context is
   unrestricted threading.  Applies to collectives and point-to-point
   calls alike. *)
let enforce_thread_level st task site =
  let required =
    match task.Task.team with
    | None -> Mpisim.Thread_level.Single
    | Some _ ->
        if task.Task.single_depth > 0 then Mpisim.Thread_level.Serialized
        else Mpisim.Thread_level.Multiple
  in
  if not (Mpisim.Thread_level.includes st.config.thread_level required) then
    raise
      (Abort_exn
         (Fault
            (Level_violation
               {
                 rank = task.Task.rank;
                 site;
                 required;
                 provided = st.config.thread_level;
               })))

(* ------------------------------------------------------------------ *)
(* Nonblocking requests (split-phase operations)                        *)
(* ------------------------------------------------------------------ *)

(* Deduplicated recording: a violation re-witnessed on every loop
   iteration (or by several threads of the rank) counts once.  The
   variants carry only ints and strings, so structural equality is
   exact. *)
let record_lifecycle st v =
  if not (List.mem v st.lifecycle) then st.lifecycle <- v :: st.lifecycle

let new_request st ~rank ~site rkind ~cell =
  let rid = st.req_counts.(rank) in
  st.req_counts.(rank) <- rid + 1;
  Hashtbl.replace st.requests (rank, rid)
    { rid; rrank = rank; rkind; rsite = site; rdone = false; rcell = cell };
  rid

let find_request st ~rank ~site rid =
  match Hashtbl.find_opt st.requests (rank, rid) with
  | Some r -> r
  | None -> fail_eval rank site "invalid request value %d" rid

(* Attempt to complete a started request; on success, deliver the
   operation's result into the destination buffer (the completion-time
   write of the split-phase semantics) and return [true]. *)
let try_complete_request st (r : request) =
  match r.rkind with
  | Rsend ->
      (* The message was delivered eagerly at the start. *)
      r.rdone <- true;
      true
  | Rround round ->
      if round < Mpisim.Engine.nb_completed_rounds st.engine then begin
        (match r.rcell with
        | Some c ->
            Compile.write_loc c
              (Mpisim.Engine.nb_result st.engine ~round ~rank:r.rrank)
        | None -> ());
        r.rcell <- None;
        r.rdone <- true;
        true
      end
      else false
  | Rrecv { r_src; r_tag } -> (
      emit_event st (Dpor.EMail { dst = r.rrank });
      match
        Mpisim.Mailbox.recv st.mailbox ~dst:r.rrank ~src:r_src ~tag:r_tag
      with
      | Some m ->
          (match r.rcell with
          | Some c -> Compile.write_loc c m.Mpisim.Mailbox.value
          | None -> ());
          r.rcell <- None;
          r.rdone <- true;
          true
      | None -> false)

(* Re-examine every task blocked in [MPI_Wait]: new completions (a
   nonblocking round closed, a message arrived) may unblock them.  A
   waiter whose request was meanwhile completed by another thread is a
   double wait: record it and release the waiter, matching the
   non-blocked path below. *)
let wake_waiters st =
  iter_live st (fun t ->
      match t.Task.status with
      | Task.Blocked (Task.At_wait { rid; site }) -> (
          match Hashtbl.find_opt st.requests (t.Task.rank, rid) with
          | None -> ()
          | Some r ->
              if r.rdone then begin
                record_lifecycle st
                  (Double_wait
                     { rank = t.Task.rank; site; start_site = r.rsite });
                set_status st t Task.Runnable
              end
              else if try_complete_request st r then
                set_status st t Task.Runnable)
      | _ -> ())

(* Advance the engine's nonblocking rounds after a new post; a completed
   round may release waiters, a mismatched one aborts exactly like a
   blocking-collective mismatch. *)
let nb_drain st =
  match Mpisim.Engine.nb_advance st.engine with
  | [] -> ()
  | outcomes ->
      List.iter
        (function
          | Mpisim.Engine.Nb_mismatch { calls; _ } ->
              raise (Abort_exn (Fault (Mismatch calls)))
          | Mpisim.Engine.Nb_completed _ -> ())
        outcomes;
      wake_waiters st

let istart_round st task call ~cell ~site =
  emit_event st (Dpor.EColl { rank = task.Task.rank });
  let round =
    Mpisim.Engine.nb_post st.engine ~rank:task.Task.rank ~cookie:task.Task.id
      call
  in
  let rid =
    new_request st ~rank:task.Task.rank ~site (Rround round) ~cell
  in
  nb_drain st;
  rid

let istart_recv st task ~cell ~src ~tag ~site =
  emit_event st (Dpor.EMail { dst = task.Task.rank });
  new_request st ~rank:task.Task.rank ~site
    (Rrecv { r_src = src; r_tag = tag })
    ~cell:(Some cell)

(* [MPI_Wait]: completes the request or blocks until it is completable.
   Waiting an already-completed request is the double-wait violation; it
   returns immediately (the deterministic stand-in for MPI's
   use-after-free undefined behaviour). *)
let exec_wait st task ~rid ~site =
  emit_event st (Dpor.EColl { rank = task.Task.rank });
  let r = find_request st ~rank:task.Task.rank ~site rid in
  if r.rdone then
    record_lifecycle st
      (Double_wait { rank = task.Task.rank; site; start_site = r.rsite })
  else if not (try_complete_request st r) then
    set_status st task (Task.Blocked (Task.At_wait { rid; site }))

(* [MPI_Test]: never blocks; returns 1 (and completes the request) when
   completable, 0 otherwise.  Testing a completed request records the
   double wait and reports completion. *)
let exec_test st task ~rid ~site =
  emit_event st (Dpor.EColl { rank = task.Task.rank });
  let r = find_request st ~rank:task.Task.rank ~site rid in
  if r.rdone then begin
    record_lifecycle st
      (Double_wait { rank = task.Task.rank; site; start_site = r.rsite });
    1
  end
  else if try_complete_request st r then 1
  else 0

(* Requests still in flight when the job finished: the dynamic witness of
   the static request-leak warning. *)
let collect_leaks st =
  for rank = 0 to st.config.nranks - 1 do
    for rid = 0 to st.req_counts.(rank) - 1 do
      match Hashtbl.find_opt st.requests (rank, rid) with
      | Some r when not r.rdone ->
          record_lifecycle st (Leaked_request { rank; site = r.rsite })
      | Some _ | None -> ()
    done
  done

let do_send st task ~value ~dst ~tag ~site =
  if dst < 0 || dst >= st.config.nranks then
    fail_eval task.Task.rank site "send destination %d out of range" dst;
  emit_event st (Dpor.EMail { dst });
  Mpisim.Mailbox.send st.mailbox ~src:task.Task.rank ~dst ~tag ~value ~site;
  (* An eager send may unblock a matching receiver of [dst]. *)
  iter_live st (fun t ->
      match t.Task.status with
      | Task.Blocked (Task.At_recv { src; tag; _ }) when t.Task.rank = dst -> (
          match Mpisim.Mailbox.recv st.mailbox ~dst ~src ~tag with
          | Some m ->
              (match t.Task.wait_cell with
              | Some cell -> Compile.write_loc cell m.Mpisim.Mailbox.value
              | None -> ());
              t.Task.wait_cell <- None;
              set_status st t Task.Runnable
          | None -> ())
      | _ -> ());
  (* ... or a task blocked in [MPI_Wait] on a matching [MPI_Irecv]. *)
  if Hashtbl.length st.requests > 0 then wake_waiters st

let istart_send st task ~value ~dst ~tag ~site =
  do_send st task ~value ~dst ~tag ~site;
  new_request st ~rank:task.Task.rank ~site Rsend ~cell:None

(* Source range already checked by the caller, before it resolves the
   target location. *)
let recv_attempt st task cell ~src ~tag ~site =
  emit_event st (Dpor.EMail { dst = task.Task.rank });
  match Mpisim.Mailbox.recv st.mailbox ~dst:task.Task.rank ~src ~tag with
  | Some m -> Compile.write_loc cell m.Mpisim.Mailbox.value
  | None ->
      task.Task.wait_cell <- Some cell;
      set_status st task (Task.Blocked (Task.At_recv { src; tag; site }))

let critical_acquire st task ~name ~site =
  emit_event st (Dpor.ELock { rank = task.Task.rank; name });
  match
    Ompsim.Critical.acquire st.criticals.(task.Task.rank) ~name
      ~cookie:task.Task.id
  with
  | Ompsim.Critical.Acquired -> (
      match st.race with
      | Some r ->
          Raceck.acquire r ~task:task.Task.id ~rank:task.Task.rank ~name
      | None -> ())
  | Ompsim.Critical.Must_wait ->
      set_status st task (Task.Blocked (Task.At_critical { name; site }))

let critical_release st task name =
  emit_event st (Dpor.ELock { rank = task.Task.rank; name });
  (match st.race with
  | Some r -> Raceck.release r ~task:task.Task.id ~rank:task.Task.rank ~name
  | None -> ());
  match
    Ompsim.Critical.release st.criticals.(task.Task.rank) ~name
      ~cookie:task.Task.id
  with
  | None -> ()
  | Some next ->
      (* Lock handoff: the released waiter holds the critical section. *)
      (match st.race with
      | Some r -> Raceck.acquire r ~task:next ~rank:task.Task.rank ~name
      | None -> ());
      set_status st st.tasks.(next) Task.Runnable

let finish_task st task =
  set_status st task Task.Finished;
  match task.Task.team with
  | None -> ()
  | Some team ->
      (* The forker joins every member; it stays blocked (so performs no
         accesses) until the last member has contributed its clock. *)
      (match st.race with
      | Some r ->
          Raceck.join r ~parent:team.Ompsim.Team.forker ~child:task.Task.id
      | None -> ());
      if Ompsim.Team.member_finished team then begin
        set_status st st.tasks.(team.Ompsim.Team.forker) Task.Runnable
      end

(* ------------------------------------------------------------------ *)
(* State fingerprinting                                                 *)
(* ------------------------------------------------------------------ *)

(* The fingerprint is a hash of every semantically live component of the
   simulator state: task list (in scheduling order), continuation stacks
   with the values of the visible variables, collective rendezvous slots,
   point-to-point inboxes, critical locks and concurrency counters.  Equal
   states hash equal by construction; the converse is heuristic (63-bit
   hash, plus variable *values* stand in for storage sharing structure) —
   see docs/PERFORMANCE.md for the soundness discussion. *)

let mix h x = (((h lsl 5) + h) lxor x) land max_int

let team_opt_hash = function
  | None -> 0x5bd1e995
  | Some (tm : Ompsim.Team.t) ->
      let singles =
        (* Claim-table iteration order varies; combine commutatively. *)
        Hashtbl.fold
          (fun key () acc -> acc + (Hashtbl.hash key lor 1))
          tm.Ompsim.Team.singles 0
      in
      (* The forker cookie depends on the schedule that spawned the team;
         identify it by its logical coordinates instead. *)
      let coords =
        mix
          (mix (mix tm.Ompsim.Team.rank tm.Ompsim.Team.size)
             tm.Ompsim.Team.depth)
          tm.Ompsim.Team.finished
      in
      mix
        (mix coords (Ompsim.Barrier.waiting_count tm.Ompsim.Team.barrier))
        singles

(* The values of a program point's visible variables, read from the live
   frames. *)
let scope_hash h (sc : Compile.scope) (frame : Compile.frame) =
  let h = ref h in
  for i = 0 to Array.length sc - 1 do
    let v = sc.(i) in
    let fr = Compile.up frame v.Compile.v_hops in
    h := mix !h fr.Compile.slots.(v.Compile.v_slot)
  done;
  !h

(* A continuation is its program point (a statement uid; [-1] past the
   end of a block) and the values visible there. *)
let kont_hash (k : Task.kont) =
  match k with
  | Task.Kseq { code; pc; frame } ->
      let stmts = code.Compile.stmts in
      let point =
        if pc < Array.length stmts then stmts.(pc).Compile.uid else -1
      in
      scope_hash (mix 1 point) code.Compile.scopes.(pc) frame
  | Task.Kwhile { uid; scope; frame; _ } -> scope_hash (mix 2 uid) scope frame
  | Task.Kfor { uid; current; stop; scope; frame; _ } ->
      scope_hash (mix (mix (mix 3 uid) current) stop) scope frame
  | Task.Kcall_return -> 4
  | Task.Kenter_single -> 5
  | Task.Kexit_single { team; nowait } ->
      mix (mix 6 (team_opt_hash team)) (Bool.to_int nowait)
  | Task.Kexit_ws { team; nowait } ->
      mix (mix 7 (team_opt_hash team)) (Bool.to_int nowait)
  | Task.Kcritical_end { uid; _ } -> mix 8 uid
  | Task.Kreduce_combine { uid; shared; private_; _ } ->
      mix (mix (mix 9 uid) (Compile.read_loc shared)) (Compile.read_loc private_)

let task_hash h (t : Task.t) =
  (* The logical identity is (rank, tid) plus the position in the fold;
     [t.id] is that position already. *)
  let h = mix h t.Task.rank in
  let h = mix h t.Task.tid in
  let h = mix h (Task.status_hash t.Task.status) in
  let h = mix h t.Task.single_depth in
  let h =
    mix h
      (match t.Task.wait_cell with
      | None -> 0x61c88647
      | Some l -> mix 0x2d51 (Compile.read_loc l))
  in
  let h = mix h (Task.encounters_hash t) in
  let h = mix h (team_opt_hash t.Task.team) in
  List.fold_left (fun h k -> mix h (kont_hash k)) h t.Task.konts

(* The non-continuation half of the state: collective rendezvous (rank
   order), mailboxes (FIFO order is semantic), criticals (sorted by name)
   and live concurrency counters (order-insensitive, zero entries elided —
   a region exited to zero must equal one never entered).  Task ids
   (engine cookies, lock holders) enter as they are: an id is the task's
   position in the task list the fingerprint folds in order. *)
let plumbing_hash st h =
  let h =
    List.fold_left
      (fun h (rc : Mpisim.Engine.rank_call) ->
        mix
          (mix (mix h rc.Mpisim.Engine.rank) rc.Mpisim.Engine.cookie)
          (Hashtbl.hash
             ( Mpisim.Coll.signature rc.Mpisim.Engine.call,
               rc.Mpisim.Engine.call.Mpisim.Coll.payload )))
      h
      (Mpisim.Engine.pending st.engine)
  in
  (* Split-phase state: unmatched posts (rank order, FIFO), the completed
     round counter with the retained per-round results (a completed round
     whose value was not yet waited for is live state), and the request
     tables (dense per-rank id order; scalar fields only — the
     destination cell's value is already covered by the environment
     hashes). *)
  let h =
    List.fold_left
      (fun h (rc : Mpisim.Engine.rank_call) ->
        mix
          (mix (mix h rc.Mpisim.Engine.rank) rc.Mpisim.Engine.cookie)
          (Hashtbl.hash
             ( Mpisim.Coll.signature rc.Mpisim.Engine.call,
               rc.Mpisim.Engine.call.Mpisim.Coll.payload )))
      h
      (Mpisim.Engine.nb_pending st.engine)
  in
  let rounds = Mpisim.Engine.nb_completed_rounds st.engine in
  let h = ref (mix h rounds) in
  for round = 0 to rounds - 1 do
    for rank = 0 to st.config.nranks - 1 do
      h := mix !h (Mpisim.Engine.nb_result st.engine ~round ~rank)
    done
  done;
  for rank = 0 to st.config.nranks - 1 do
    for rid = 0 to st.req_counts.(rank) - 1 do
      match Hashtbl.find_opt st.requests (rank, rid) with
      | None -> ()
      | Some r ->
          h := mix !h (Hashtbl.hash (rank, rid, r.rkind, r.rdone, r.rsite))
    done
  done;
  for rank = 0 to st.config.nranks - 1 do
    List.iter
      (fun (m : Mpisim.Mailbox.message) ->
        h :=
          mix !h
            (Hashtbl.hash
               ( m.Mpisim.Mailbox.src,
                 m.Mpisim.Mailbox.tag,
                 m.Mpisim.Mailbox.value )))
      (Mpisim.Mailbox.inbox st.mailbox rank);
    List.iter
      (fun (name, holder, waiters) ->
        h := mix !h (Hashtbl.hash (name, holder, waiters)))
      (Ompsim.Critical.state st.criticals.(rank))
  done;
  let counters =
    Hashtbl.fold
      (fun key n acc ->
        if n = 0 then acc else acc + (Hashtbl.hash (key, n) lor 1))
      st.counters 0
  in
  mix !h counters

let state_hash st =
  let h = ref 0x811c9dc5 in
  (* Task order matters (round-robin indexing), so fold in sequence. *)
  for i = 0 to st.ntasks - 1 do
    h := task_hash !h st.tasks.(i)
  done;
  plumbing_hash st !h

(* ------------------------------------------------------------------ *)
(* Statement execution                                                  *)
(* ------------------------------------------------------------------ *)

let loc_of_vref frame (vr : Compile.vref) =
  {
    Compile.l_frame = Compile.up frame vr.Compile.v_hops;
    l_slot = vr.Compile.v_slot;
  }

let push_single_body (task : Task.t) body frame ~team ~nowait =
  task.Task.konts <-
    Task.Kenter_single
    :: Task.Kseq { code = body; pc = 0; frame }
    :: Task.Kexit_single { team; nowait }
    :: task.Task.konts

(* Feed the recorded slot accesses of one executed statement (or one
   loop-back condition re-evaluation) to the race oracle and, as
   footprints, to the DPOR recorder — and screen them against the
   destination buffers of in-flight requests: touching the target of an
   [MPI_Irecv]/[MPI_Iallreduce] before its completion is the
   use-before-completion lifecycle violation. *)
let record_accesses st (task : Task.t) ~site ~frame acc =
  if Hashtbl.length st.requests > 0 then
    Array.iter
      (fun (a : Compile.access) ->
        let fr = Compile.up frame a.Compile.a_hops in
        Hashtbl.iter
          (fun _ (r : request) ->
            if not r.rdone then
              match r.rcell with
              | Some l
                when l.Compile.l_frame == fr
                     && l.Compile.l_slot = a.Compile.a_slot ->
                  record_lifecycle st
                    (Stale_read
                       { rank = task.Task.rank; site; start_site = r.rsite })
              | Some _ | None -> ())
          st.requests)
      acc;
  (match st.events with
  | None -> ()
  | Some emit ->
      Array.iter
        (fun (a : Compile.access) ->
          let fr = Compile.up frame a.Compile.a_hops in
          emit
            (Dpor.ESlot
               {
                 fid = fr.Compile.fid;
                 slot = a.Compile.a_slot;
                 write = a.Compile.a_write;
               }))
        acc);
  match st.race with
  | None -> ()
  | Some r ->
      Array.iter
        (Raceck.access r ~task:task.Task.id ~rank:task.Task.rank ~site ~frame)
        acc

let exec_stmt st (task : Task.t) (cs : Compile.cstmt) frame =
  let ec = st.ectxs.(task.Task.id) in
  let site = cs.Compile.site in
  if Array.length cs.Compile.acc > 0 then
    record_accesses st task ~site ~frame cs.Compile.acc;
  match cs.Compile.desc with
  | Compile.CDecl (slot, value) ->
      frame.Compile.slots.(slot) <- value ec frame
  | Compile.CAssign (vr, value) ->
      let v = value ec frame in
      (Compile.up frame vr.Compile.v_hops).Compile.slots.(vr.Compile.v_slot) <-
        v
  | Compile.CAssign_unbound (x, value) ->
      let (_ : int) = value ec frame in
      fail_eval task.Task.rank site "unbound variable '%s'" x
  | Compile.CIf (cond, bt, bf) ->
      let branch = if cond ec frame <> 0 then bt else bf in
      task.Task.konts <-
        Task.Kseq { code = branch; pc = 0; frame } :: task.Task.konts
  | Compile.CWhile { cond; scope; cacc; body } ->
      task.Task.konts <-
        Task.Kwhile
          { cond; uid = cs.Compile.uid; scope; cacc; wsite = site; body; frame }
        :: task.Task.konts
  | Compile.CFor { slot; lo; hi; scope; body } ->
      let l = lo ec frame in
      let h = hi ec frame in
      task.Task.konts <-
        Task.Kfor
          { slot; uid = cs.Compile.uid; current = l; stop = h; scope; body; frame }
        :: task.Task.konts
  | Compile.CReturn ->
      let rec unwind = function
        | [] -> []
        | Task.Kcall_return :: rest -> rest
        | _ :: rest -> unwind rest
      in
      task.Task.konts <- unwind task.Task.konts
  | Compile.CCall_error message ->
      raise
        (Abort_exn
           (Fault (Eval_error { rank = task.Task.rank; site; message })))
  | Compile.CCall { target; args } ->
      let nf =
        Compile.root_frame ~fid:(st.fresh_fid ()) target.Compile.f_nslots
      in
      Array.iteri (fun i a -> nf.Compile.slots.(i) <- a ec frame) args;
      task.Task.konts <-
        Task.Kseq { code = target.Compile.f_body; pc = 0; frame = nf }
        :: Task.Kcall_return :: task.Task.konts
  | Compile.CCompute e ->
      let n = e ec frame in
      st.stats.work <- st.stats.work + Int.max 0 n
  | Compile.CPrint e ->
      let v = e ec frame in
      if st.config.record_trace then
        st.stats.trace <-
          (task.Task.rank, task.Task.tid, v) :: st.stats.trace
  | Compile.CColl { target; coll } ->
      enforce_thread_level st task site;
      (* Payload before root, so an error in either reports the same
         way on every run. *)
      let payload = coll.Compile.k_payload ec frame in
      let root = Option.map (fun f -> f ec frame) coll.Compile.k_root in
      let call =
        Mpisim.Coll.make coll.Compile.k_kind ?op:coll.Compile.k_op ?root
          ~payload ~site ()
      in
      let cell =
        match target with
        | None -> None
        | Some (Compile.CRef vr) -> Some (loc_of_vref frame vr)
        | Some (Compile.CUnbound x) ->
            fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      collective_arrive st task call cell
  | Compile.CCheck check -> (
      match check with
      | Compile.KCc_next { color; csite } ->
          cc_arrive st task ~color ~site:csite
      | Compile.KCc_return { csite } ->
          cc_arrive st task ~color:Ast.cc_return_color ~site:csite
      | Compile.KAssert_mono -> check_assert_mono task ~site
      | Compile.KCount_enter region ->
          check_count_enter st task ~region ~site
      | Compile.KCount_exit region -> check_count_exit st task ~region)
  | Compile.CSend { value; dest; tag } ->
      enforce_thread_level st task site;
      let v = value ec frame in
      let dst = dest ec frame in
      let tag = tag ec frame in
      do_send st task ~value:v ~dst ~tag ~site
  | Compile.CRecv { target; src; tag } ->
      enforce_thread_level st task site;
      let src = src ec frame in
      let tag = tag ec frame in
      if src <> Mpisim.Mailbox.any_source && (src < 0 || src >= st.config.nranks)
      then fail_eval task.Task.rank site "receive source %d out of range" src;
      let cell =
        match target with
        | Compile.CRef vr -> loc_of_vref frame vr
        | Compile.CUnbound x ->
            fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      recv_attempt st task cell ~src ~tag ~site
  | Compile.CIstart { rslot; rop } ->
      enforce_thread_level st task site;
      let cell_of = function
        | Compile.CRef vr -> loc_of_vref frame vr
        | Compile.CUnbound x ->
            fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      let rid =
        match rop with
        | Compile.KIbarrier ->
            istart_round st task
              (Mpisim.Coll.make Mpisim.Coll.Barrier ~payload:0 ~site ())
              ~cell:None ~site
        | Compile.KIallreduce { op; target; value } ->
            let payload = value ec frame in
            let cell = cell_of target in
            istart_round st task
              (Mpisim.Coll.make Mpisim.Coll.Allreduce ~op ~payload ~site ())
              ~cell:(Some cell) ~site
        | Compile.KIsend { value; dest; tag } ->
            let v = value ec frame in
            let dst = dest ec frame in
            let tag = tag ec frame in
            istart_send st task ~value:v ~dst ~tag ~site
        | Compile.KIrecv { target; src; tag } ->
            let src = src ec frame in
            let tag = tag ec frame in
            if
              src <> Mpisim.Mailbox.any_source
              && (src < 0 || src >= st.config.nranks)
            then
              fail_eval task.Task.rank site "receive source %d out of range"
                src;
            let cell = cell_of target in
            istart_recv st task ~cell ~src ~tag ~site
      in
      frame.Compile.slots.(rslot) <- rid
  | Compile.CWait { req } ->
      let rid =
        match req with
        | Compile.CRef vr -> Compile.read_loc (loc_of_vref frame vr)
        | Compile.CUnbound x ->
            fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      exec_wait st task ~rid ~site
  | Compile.CTest { target; req } -> (
      let rid =
        match req with
        | Compile.CRef vr -> Compile.read_loc (loc_of_vref frame vr)
        | Compile.CUnbound x ->
            fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      let v = exec_test st task ~rid ~site in
      match target with
      | Compile.CRef vr -> Compile.write_loc (loc_of_vref frame vr) v
      | Compile.CUnbound x ->
          fail_eval task.Task.rank site "unbound variable '%s'" x)
  | Compile.CPar { num_threads; nslots; body } ->
      let n =
        match num_threads with
        | None -> st.config.default_nthreads
        | Some f -> f ec frame
      in
      if n <= 0 then
        fail_eval task.Task.rank site "num_threads(%d) must be positive" n;
      (* Task ids — and with them the deterministic round-robin tail of
         every explored schedule — are assigned in spawn order, so
         spawns do not commute. *)
      emit_event st Dpor.ESpawn;
      let team =
        Ompsim.Team.create ~rank:task.Task.rank ~size:n ~parent:task.Task.team
          ~forker:task.Task.id
      in
      for tid = 0 to n - 1 do
        let fr = Compile.child_frame ~fid:(st.fresh_fid ()) ~parent:frame nslots in
        let child =
          spawn st ~rank:task.Task.rank ~tid ~team:(Some team)
            ~konts:[ Task.Kseq { code = body; pc = 0; frame = fr } ]
        in
        match st.race with
        | Some r -> Raceck.fork r ~parent:task.Task.id ~child:child.Task.id
        | None -> ()
      done;
      set_status st task (Task.Blocked Task.At_join)
  | Compile.CSingle { nowait; body } -> (
      match task.Task.team with
      | None -> push_single_body task body frame ~team:None ~nowait:true
      | Some team ->
          let instance = Task.next_instance task cs.Compile.uid in
          (* Claim arbitration: whichever team member claims first runs
             the body, so claims of one instance do not commute. *)
          emit_event st
            (Dpor.ESingle
               {
                 forker = team.Ompsim.Team.forker;
                 uid = cs.Compile.uid;
                 instance;
               });
          if Ompsim.Team.claim_single team ~construct:cs.Compile.uid ~instance
          then push_single_body task body frame ~team:(Some team) ~nowait
          else if not nowait then barrier_arrive st task team ~site)
  | Compile.CMaster body -> (
      match task.Task.team with
      | None -> push_single_body task body frame ~team:None ~nowait:true
      | Some _ ->
          if task.Task.tid = 0 then
            push_single_body task body frame ~team:None ~nowait:true)
  | Compile.CCritical { name; body } ->
      task.Task.konts <-
        Task.Kseq { code = body; pc = 0; frame }
        :: Task.Kcritical_end { name; uid = cs.Compile.uid }
        :: task.Task.konts;
      critical_acquire st task ~name ~site
  | Compile.CBarrier -> (
      match task.Task.team with
      | None -> ()
      | Some team -> barrier_arrive st task team ~site)
  | Compile.CWsfor { slot; lo; hi; nowait; reduction; kscope; body } ->
      let l = lo ec frame in
      let h = hi ec frame in
      let start, stop =
        match task.Task.team with
        | None -> (l, h)
        | Some team ->
            Ompsim.Schedule.chunk ~lo:l ~hi:h ~tid:task.Task.tid
              ~nthreads:team.Ompsim.Team.size
      in
      let combine_konts =
        match reduction with
        | None -> []
        | Some r ->
            let shared =
              match r.Compile.r_shared with
              | Compile.CRef vr -> loc_of_vref frame vr
              | Compile.CUnbound x ->
                  fail_eval task.Task.rank site
                    "unbound reduction variable '%s'" x
            in
            frame.Compile.slots.(r.Compile.r_priv_slot) <-
              reduction_identity r.Compile.r_op;
            [
              Task.Kreduce_combine
                {
                  op = r.Compile.r_op;
                  uid = cs.Compile.uid;
                  shared;
                  private_ =
                    { Compile.l_frame = frame; l_slot = r.Compile.r_priv_slot };
                };
            ]
      in
      task.Task.konts <-
        (Task.Kfor
           {
             slot;
             uid = cs.Compile.uid;
             current = start;
             stop;
             scope = kscope;
             body;
             frame;
           }
        :: combine_konts)
        @ Task.Kexit_ws { team = task.Task.team; nowait } :: task.Task.konts
  | Compile.CSections { nowait; sections } ->
      let count = Array.length sections in
      let mine =
        match task.Task.team with
        | None -> List.init count (fun i -> i)
        | Some team ->
            Ompsim.Schedule.sections_for ~count ~tid:task.Task.tid
              ~nthreads:team.Ompsim.Team.size
      in
      let konts_for_sections =
        List.concat_map
          (fun i ->
            [
              Task.Kenter_single;
              Task.Kseq { code = sections.(i); pc = 0; frame };
              Task.Kexit_single { team = None; nowait = true };
            ])
          mine
      in
      task.Task.konts <-
        konts_for_sections
        @ (Task.Kexit_ws { team = task.Task.team; nowait } :: task.Task.konts)

let step st (task : Task.t) =
  match task.Task.konts with
  | [] -> finish_task st task
  | k :: rest -> (
      match k with
      | Task.Kseq ({ code; pc; frame } as sq) ->
          if pc >= Array.length code.Compile.stmts then task.Task.konts <- rest
          else begin
            sq.pc <- pc + 1;
            exec_stmt st task code.Compile.stmts.(pc) frame
          end
      | Task.Kwhile { cond; cacc; wsite; body; frame; _ } ->
          if Array.length cacc > 0 then
            record_accesses st task ~site:wsite ~frame cacc;
          if cond st.ectxs.(task.Task.id) frame <> 0 then
            task.Task.konts <-
              Task.Kseq { code = body; pc = 0; frame } :: task.Task.konts
          else task.Task.konts <- rest
      | Task.Kfor ({ slot; current; stop; body; frame; _ } as f) ->
          if current < stop then begin
            frame.Compile.slots.(slot) <- current;
            f.current <- current + 1;
            task.Task.konts <-
              Task.Kseq { code = body; pc = 0; frame } :: task.Task.konts
          end
          else task.Task.konts <- rest
      | Task.Kcall_return -> task.Task.konts <- rest
      | Task.Kenter_single ->
          task.Task.single_depth <- task.Task.single_depth + 1;
          task.Task.konts <- rest
      | Task.Kexit_single { team; nowait } -> (
          task.Task.single_depth <- Int.max 0 (task.Task.single_depth - 1);
          task.Task.konts <- rest;
          match team with
          | Some tm when not nowait ->
              barrier_arrive st task tm ~site:"<end single>"
          | Some _ | None -> ())
      | Task.Kexit_ws { team; nowait } -> (
          task.Task.konts <- rest;
          match team with
          | Some tm when not nowait ->
              barrier_arrive st task tm ~site:"<end worksharing>"
          | Some _ | None -> ())
      | Task.Kreduce_combine { op; shared; private_; _ } ->
          Compile.write_loc shared
            (apply_reduce_op op (Compile.read_loc shared)
               (Compile.read_loc private_));
          task.Task.konts <- rest
      | Task.Kcritical_end { name; _ } ->
          task.Task.konts <- rest;
          critical_release st task name)

(* ------------------------------------------------------------------ *)
(* Printers                                                             *)
(* ------------------------------------------------------------------ *)

let pp_error ppf = function
  | Mismatch calls ->
      Fmt.pf ppf "collective mismatch:@\n%s"
        (Mpisim.Engine.describe_divergence calls)
  | Cc_divergence calls ->
      Fmt.pf ppf
        "CC check: processes disagree on the next collective:@\n%s"
        (Mpisim.Engine.describe_divergence calls)
  | Concurrent_collective { rank; site1; site2 } ->
      Fmt.pf ppf
        "concurrent collective calls on rank %d: %s while %s is in flight"
        rank site2 site1
  | Concurrent_region { rank; region; site } ->
      Fmt.pf ppf
        "concurrency counter: >1 thread of rank %d in monothreaded region \
         group %d at %s"
        rank region site
  | Multithreaded_region { rank; site } ->
      Fmt.pf ppf "collective in multithreaded context on rank %d at %s" rank
        site
  | Eval_error { rank; site; message } ->
      Fmt.pf ppf "evaluation error on rank %d at %s: %s" rank site message
  | Level_violation { rank; site; required; provided } ->
      Fmt.pf ppf
        "thread-level violation on rank %d at %s: the call site requires %a \
         but MPI was initialised with %a"
        rank site Mpisim.Thread_level.pp required Mpisim.Thread_level.pp
        provided

let pp_lifecycle ppf = function
  | Leaked_request { rank; site } ->
      Fmt.pf ppf "request leak on rank %d: request started at %s was never \
                  completed" rank site
  | Double_wait { rank; site; start_site } ->
      Fmt.pf ppf
        "double completion on rank %d at %s: the request started at %s was \
         already completed"
        rank site start_site
  | Stale_read { rank; site; start_site } ->
      Fmt.pf ppf
        "use before completion on rank %d at %s: the buffer of the request \
         started at %s is still in flight"
        rank site start_site

let pp_outcome ppf = function
  | Finished -> Fmt.string ppf "finished"
  | Aborted e -> Fmt.pf ppf "aborted by verification check: %a" pp_error e
  | Fault e -> Fmt.pf ppf "runtime fault: %a" pp_error e
  | Deadlock blocked ->
      Fmt.pf ppf "deadlock:@\n%a"
        (Fmt.list ~sep:Fmt.cut (fun ppf s -> Fmt.pf ppf "  %s" s))
        blocked
  | Step_limit -> Fmt.string ppf "step limit exceeded"

let outcome_to_string o = Fmt.str "%a" pp_outcome o

let make_stats ~degree_cap =
  {
    steps = 0;
    work = 0;
    counter_checks = 0;
    cc_calls = 0;
    tasks_spawned = 0;
    trace = [];
    degrees = Array.make degree_cap 0;
    ndegrees = 0;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

type compiled = Compile.t

(** Lower a validated program once; the result is immutable and safely
    shared across domains (exploration workers). *)
let make (program : Ast.program) : compiled = Compile.lower program

(** Execute a compiled program.
    @raise Invalid_argument if the entry function is missing or takes
    parameters. *)
let run_compiled ?(config = default_config) ?probe ?race ?recorder ?on_engine
    (prog : compiled) =
  let entry =
    match Compile.find prog config.entry with
    | Some f -> f
    | None ->
        invalid_arg
          (Printf.sprintf "Sim.run: no entry function '%s'" config.entry)
  in
  if entry.Compile.f_nparams <> 0 then
    invalid_arg "Sim.run: the entry function must take no parameters";
  (* Probe runs only ever branch within the fingerprinted window, so the
     degree buffer shrinks to match; plain runs keep a cap of 64. *)
  let degree_cap = match probe with Some p -> p.fp_depth + 1 | None -> 64 in
  let st =
    {
      config;
      engine = Mpisim.Engine.create ~nranks:config.nranks;
      mailbox = Mpisim.Mailbox.create ~nranks:config.nranks;
      criticals = Array.init config.nranks (fun _ -> Ompsim.Critical.create ());
      counters = Hashtbl.create 16;
      requests = Hashtbl.create 16;
      req_counts = Array.make config.nranks 0;
      lifecycle = [];
      stats = make_stats ~degree_cap;
      tasks = Array.make 8 dummy_task;
      ectxs = Array.make 8 dummy_ectx;
      ntasks = 0;
      live = Array.make 8 0;
      nlive = 0;
      rq = Array.make 8 0;
      nrq = 0;
      (* The recorder supplies the vector-clock oracle (it needs the
         synchronisation edges for its happens-before snapshots). *)
      race =
        (match recorder with Some d -> Some (Dpor.oracle d) | None -> race);
      events =
        (match recorder with Some d -> Some (Dpor.emit d) | None -> None);
      fresh_fid =
        (match recorder with
        | Some d -> fun () -> Dpor.fresh_fid d
        | None -> fun () -> -1);
    }
  in
  (* Online consumers (e.g. the streaming overlay checker) get the engine
     before any rank runs, so no collective arrival escapes their hook. *)
  (match on_engine with None -> () | Some f -> f st.engine);
  for rank = 0 to config.nranks - 1 do
    let frame =
      Compile.root_frame ~fid:(st.fresh_fid ()) entry.Compile.f_nslots
    in
    ignore
      (spawn st ~rank ~tid:0 ~team:None
         ~konts:[ Task.Kseq { code = entry.Compile.f_body; pc = 0; frame } ])
  done;
  let rng =
    match config.schedule with
    | `Random seed -> Some (Random.State.make [| seed |])
    | `Round_robin | `Scripted _ -> None
  in
  let script = ref (match config.schedule with `Scripted l -> l | _ -> []) in
  let cursor = ref 0 in
  (* Called with [st.nrq > 0].  [rq] lists the runnable tasks in spawn
     order; a random schedule draws an index, a script takes
     [((choice mod n) + n) mod n], round-robin cycles a cursor. *)
  let pick () =
    let n = st.nrq in
    if st.stats.ndegrees < degree_cap then begin
      st.stats.degrees.(st.stats.ndegrees) <- n;
      st.stats.ndegrees <- st.stats.ndegrees + 1
    end;
    let idx =
      match (rng, !script) with
      | Some rng, _ -> Random.State.int rng n
      | None, choice :: rest ->
          script := rest;
          ((choice mod n) + n) mod n
      | None, [] ->
          let c = !cursor mod n in
          incr cursor;
          c
    in
    let id = st.rq.(idx) in
    (match (recorder, st.events) with
    | Some d, Some _ ->
        (* Open the step: runnable ids + chosen task + clock tick.  The
           recorder stops at its window; beyond it, drop the hooks so the
           tail runs at full speed. *)
        if not (Dpor.begin_step d ~task:id ~runnable:st.rq ~n) then begin
          st.events <- None;
          st.race <- None
        end
    | _ -> ());
    st.tasks.(id)
  in
  let record_fp =
    match probe with
    | None -> fun () -> ()
    | Some p ->
        p.fp_recorded <- 0;
        fun () ->
          if st.stats.steps <= p.fp_depth && p.fp_recorded = st.stats.steps
          then begin
            p.fingerprints.(st.stats.steps) <- state_hash st;
            p.fp_recorded <- st.stats.steps + 1
          end
  in
  let outcome =
    try
      let rec loop () =
        if st.stats.steps >= config.max_steps then Step_limit
        else begin
          record_fp ();
          if st.nrq > 0 then begin
            let task = pick () in
            st.stats.steps <- st.stats.steps + 1;
            step st task;
            loop ()
          end
          else begin
            (* Nothing is runnable: every task left in [live] once the
               finished ones are dropped is blocked. *)
            iter_live st ignore;
            if st.nlive = 0 then Finished
            else
              Deadlock
                (List.init st.nlive (fun i ->
                     Task.describe st.tasks.(st.live.(i))))
          end
        end
      in
      loop ()
    with
    | Abort_exn o -> o
    | Compile.Error { rank; site; message } ->
        Fault (Eval_error { rank; site; message })
  in
  (* Snapshot the last recorded step's clock (the next begin_step would
     have done it; there is none after the run ends or aborts). *)
  (match recorder with Some d -> Dpor.finalize d | None -> ());
  if outcome = Finished then collect_leaks st;
  {
    outcome;
    stats = st.stats;
    engine = st.engine;
    lifecycle = List.rev st.lifecycle;
  }

(** Execute [program] (already validated): [make] + {!run_compiled}.
    [probe], when given, turns on the exploration instrumentation: state
    fingerprints for the first [probe_depth] steps land in the probe's
    preallocated buffer, and the degree record is capped at the same
    depth.
    @raise Invalid_argument if the entry function is missing or takes
    parameters. *)
let run ?config ?probe ?race ?recorder ?on_engine (program : Ast.program) =
  run_compiled ?config ?probe ?race ?recorder ?on_engine (make program)

(** Trace of [print] events in execution order. *)
let trace (result : result) = List.rev result.stats.trace

let is_finished result = result.outcome = Finished

let is_clean_abort result =
  match result.outcome with Aborted _ -> true | _ -> false

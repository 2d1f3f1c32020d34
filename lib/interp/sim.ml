(** The hybrid MPI+OpenMP execution simulator.

    [run] executes a validated program on [nranks] simulated MPI processes,
    each potentially forking OpenMP teams.  Every rank×thread is a
    {!Task.t}; a seeded scheduler advances one task per step, so
    interleavings are reproducible and errors that depend on timing (two
    [single] regions overlapping, threads racing into collectives) can be
    exhibited deterministically in tests.

    Two interpreter cores share the scheduling, MPI and OpenMP plumbing:

    - the {b compiled core} ([make] / [run_compiled]; [run] is
      [make]+[run_compiled]) executes the slot-resolved form produced by
      {!Compile} — no AST dispatch, no string-keyed environment lookups,
      no per-step site-string allocation, and a scheduler that draws
      from a runnable queue kept up to date at status transitions;
    - the {b reference core} ([run_reference]) is the original AST
      tree-walker, kept verbatim as the equivalence oracle (the same
      pattern as [Explore.outcomes_reference]).  Both produce identical
      traces, outcomes, step counts and state fingerprints — property
      tested in [test/test_compile.ml].

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
          [MPI_Iallreduce] was accessed before its completion (compiled
          core only, like slot-access recording). *)

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
(* Exploration probe: canonical statement ids + state fingerprints      *)
(* ------------------------------------------------------------------ *)

(** Canonical statement identities: every statement of the program,
    numbered in deterministic AST order.  Unlike encounter-order
    numbering — which depends on the schedule — these ids are stable
    across runs, so state fingerprints of different runs are
    comparable.  {!Compile.lower} assigns the same numbers (same
    traversal, same dedup), so they are also stable across the two
    interpreter cores. *)
type stmt_ids = int Ast.Stmt_tbl.t

let stmt_ids (program : Ast.program) : stmt_ids =
  let tbl = Ast.Stmt_tbl.create 256 in
  let next = ref 0 in
  List.iter
    (fun (f : Ast.func) ->
      Ast.fold_stmts
        (fun () s ->
          if not (Ast.Stmt_tbl.mem tbl s) then begin
            Ast.Stmt_tbl.replace tbl s !next;
            incr next
          end)
        () f.Ast.body)
    program.Ast.funcs;
  tbl

(** Reusable exploration instrument: a preallocated buffer of state
    fingerprints for the first [fp_depth] scheduling steps of a run.
    [fingerprints.(k)] is a hash of the semantic simulator state after
    exactly [k] steps; {!Explore} treats two runs whose fingerprints
    agree at the same depth as having identical continuations.  One probe
    serves many runs (one per exploration worker): [run] resets
    [fp_recorded] on entry and fills the buffer in place — no per-run
    allocation. *)
type probe = {
  fp_depth : int;
  fingerprints : int array;  (** Length [fp_depth + 1]. *)
  mutable fp_recorded : int;  (** Valid entries of the current run. *)
  ids : stmt_ids;
}

let make_probe ~depth ~ids =
  if depth < 0 then invalid_arg "Sim.make_probe: depth must be >= 0";
  {
    fp_depth = depth;
    fingerprints = Array.make (depth + 1) 0;
    fp_recorded = 0;
    ids;
  }

let probe_depth p = p.fp_depth

let probe_recorded p = p.fp_recorded

let probe_fingerprint p k =
  if k < 0 || k >= p.fp_recorded then
    invalid_arg "Sim.probe_fingerprint: step not recorded";
  p.fingerprints.(k)

(* ------------------------------------------------------------------ *)
(* Shared plumbing: the interpreter-independent half of the simulator    *)
(* ------------------------------------------------------------------ *)

(* Everything below is polymorphic in the continuation type ['k] and the
   result-cell type ['c] of [('k, 'c) Task.t], so the reference
   tree-walker and the compiled core share one implementation of the
   delicate parts: collective rendezvous (including the
   abort-vs-fault classification), OpenMP barriers and criticals,
   point-to-point matching, the instrumentation checks and the
   non-continuation half of state fingerprints. *)

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
type 'c request = {
  rid : int;
  rrank : int;
  rkind : rkind;
  rsite : string;  (** Site of the start call. *)
  mutable rdone : bool;
  mutable rcell : 'c option;
}

type ('k, 'c) core = {
  config : config;
  engine : Mpisim.Engine.t;
  mailbox : Mpisim.Mailbox.t;
  criticals : Ompsim.Critical.t array;  (** Per-rank named locks. *)
  counters : (int * int, int) Hashtbl.t;  (** (rank, region) → live count. *)
  requests : (int * int, 'c request) Hashtbl.t;  (** (rank, rid) → request. *)
  req_counts : int array;  (** Next request id, per rank. *)
  mutable lifecycle : lifecycle list;  (** Violations, newest first. *)
  stats : stats;
  find : int -> ('k, 'c) Task.t;  (** Task by engine cookie. *)
  set_cell : 'c -> int -> unit;  (** Deliver a result into a cell. *)
  iter_tasks : (('k, 'c) Task.t -> unit) -> unit;
      (** In spawn order; may skip finished tasks. *)
  mutable rq : int array;
      (** Ids of the [Runnable] tasks in ascending order ([nrq] valid):
          ids are assigned in spawn order, so this is the runnable list
          the scheduler draws from.  Kept by {!set_status} and the spawn
          functions, never rebuilt. *)
  mutable nrq : int;
  mutable race : Raceck.t option;
      (** Dynamic race oracle; fed the synchronisation the runtime
          executes (and, in the compiled core only, slot accesses).
          Mutable so the DPOR driver can drop it once the recording
          window closes. *)
  mutable events : (Dpor.eobj -> unit) option;
      (** DPOR footprint sink: every visible operation of the current
          step reports its footprint here (compiled core only). *)
}

let emit_event (co : _ core) e =
  match co.events with Some f -> f e | None -> ()

(* ------------------------------------------------------------------ *)
(* Runnable queue                                                       *)
(* ------------------------------------------------------------------ *)

(* Spawns insert at the end: a new task's id is the largest so far. *)
let rq_insert (co : _ core) id =
  if co.nrq = Array.length co.rq then begin
    let rq = Array.make (2 * co.nrq) 0 in
    Array.blit co.rq 0 rq 0 co.nrq;
    co.rq <- rq
  end;
  let rq = co.rq in
  let i = ref co.nrq in
  while !i > 0 && rq.(!i - 1) > id do
    rq.(!i) <- rq.(!i - 1);
    decr i
  done;
  rq.(!i) <- id;
  co.nrq <- co.nrq + 1

let rq_remove (co : _ core) id =
  let rq = co.rq in
  let i = ref 0 in
  while rq.(!i) <> id do
    incr i
  done;
  Array.blit rq (!i + 1) rq !i (co.nrq - !i - 1);
  co.nrq <- co.nrq - 1

(** Every task status change goes through here, so the runnable queue
    changes exactly when a task enters or leaves [Runnable]. *)
let set_status (co : _ core) (task : _ Task.t) status =
  let was = Task.is_runnable task in
  task.Task.status <- status;
  match status with
  | Task.Runnable -> if not was then rq_insert co task.Task.id
  | Task.Blocked _ | Task.Finished -> if was then rq_remove co task.Task.id

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

let op_of_ast = Compile.op_of_ast

(* Register an arrival and, if the collective is now full, complete it. *)
let collective_arrive (co : ('k, 'c) core) (task : ('k, 'c) Task.t) call cell =
  emit_event co (Dpor.EColl { rank = task.Task.rank });
  task.Task.wait_cell <- cell;
  match
    Mpisim.Engine.arrive co.engine ~rank:task.Task.rank ~cookie:task.Task.id
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
      set_status co task
        (Task.Blocked
          (Task.At_collective
             {
               site = call.Mpisim.Coll.site;
               coll = Mpisim.Coll.kind_name call.Mpisim.Coll.kind;
             }));
      match Mpisim.Engine.try_complete co.engine with
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
          (match (co.race, co.events) with
          | Some r, Some _ ->
              Raceck.barrier r
                (List.map
                   (fun (rc : Mpisim.Engine.rank_call) ->
                     rc.Mpisim.Engine.cookie)
                   calls)
          | _ -> ());
          List.iter
            (fun (rc : Mpisim.Engine.rank_call) ->
              let t = co.find rc.Mpisim.Engine.cookie in
              (match t.Task.wait_cell with
              | Some c -> co.set_cell c results.(rc.Mpisim.Engine.rank)
              | None -> ());
              t.Task.wait_cell <- None;
              set_status co t Task.Runnable)
            calls
      | Some (Mpisim.Engine.Mismatch calls) ->
          raise (Abort_exn (Fault (Mismatch calls)))
      | Some (Mpisim.Engine.Cc_divergence calls) ->
          raise (Abort_exn (Aborted (Cc_divergence calls))))

let barrier_arrive (co : _ core) task (team : Ompsim.Team.t) ~site =
  match Ompsim.Barrier.arrive team.Ompsim.Team.barrier ~cookie:task.Task.id with
  | Ompsim.Barrier.Wait ->
      set_status co task (Task.Blocked (Task.At_barrier { site }))
  | Ompsim.Barrier.Release cookies ->
      (match co.race with
      | Some r -> Raceck.barrier r (task.Task.id :: cookies)
      | None -> ());
      List.iter (fun c -> set_status co (co.find c) Task.Runnable) cookies

(* The instrumentation checks (the paper's CC agreement and concurrency
   counters). *)
let cc_arrive (co : _ core) task ~color ~site =
  co.stats.cc_calls <- co.stats.cc_calls + 1;
  collective_arrive co task (Mpisim.Coll.cc_check ~color ~site) None

let check_assert_mono (_ : _ core) task ~site =
  if Task.team_size task > 1 && task.Task.single_depth = 0 then
    raise
      (Abort_exn (Aborted (Multithreaded_region { rank = task.Task.rank; site })))

let check_count_enter (co : _ core) task ~region ~site =
  emit_event co (Dpor.ECounter { rank = task.Task.rank; region });
  co.stats.counter_checks <- co.stats.counter_checks + 1;
  let key = (task.Task.rank, region) in
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt co.counters key) in
  Hashtbl.replace co.counters key n;
  if n > 1 then
    raise
      (Abort_exn
         (Aborted (Concurrent_region { rank = task.Task.rank; region; site })))

let check_count_exit (co : _ core) task ~region =
  emit_event co (Dpor.ECounter { rank = task.Task.rank; region });
  let key = (task.Task.rank, region) in
  let n = Option.value ~default:0 (Hashtbl.find_opt co.counters key) in
  Hashtbl.replace co.counters key (Int.max 0 (n - 1))

(* Dynamic thread-level requirement of the calling context: no team means
   the single initial thread; inside a [single]/[master]/[section] body one
   thread of the team calls MPI at a time (SERIALIZED — a conservative
   merge of FUNNELED and SERIALIZED); any other in-team context is
   unrestricted threading.  Applies to collectives and point-to-point
   calls alike. *)
let enforce_thread_level (co : _ core) task site =
  let required =
    match task.Task.team with
    | None -> Mpisim.Thread_level.Single
    | Some _ ->
        if task.Task.single_depth > 0 then Mpisim.Thread_level.Serialized
        else Mpisim.Thread_level.Multiple
  in
  if not (Mpisim.Thread_level.includes co.config.thread_level required) then
    raise
      (Abort_exn
         (Fault
            (Level_violation
               {
                 rank = task.Task.rank;
                 site;
                 required;
                 provided = co.config.thread_level;
               })))

(* ------------------------------------------------------------------ *)
(* Nonblocking requests (split-phase operations)                        *)
(* ------------------------------------------------------------------ *)

(* Deduplicated recording: a violation re-witnessed on every loop
   iteration (or by several threads of the rank) counts once.  The
   variants carry only ints and strings, so structural equality is
   exact. *)
let record_lifecycle (co : _ core) v =
  if not (List.mem v co.lifecycle) then co.lifecycle <- v :: co.lifecycle

let new_request (co : _ core) ~rank ~site rkind ~cell =
  let rid = co.req_counts.(rank) in
  co.req_counts.(rank) <- rid + 1;
  Hashtbl.replace co.requests (rank, rid)
    { rid; rrank = rank; rkind; rsite = site; rdone = false; rcell = cell };
  rid

let find_request (co : _ core) ~rank ~site rid =
  match Hashtbl.find_opt co.requests (rank, rid) with
  | Some r -> r
  | None -> fail_eval rank site "invalid request value %d" rid

(* Attempt to complete a started request; on success, deliver the
   operation's result into the destination buffer (the completion-time
   write of the split-phase semantics) and return [true]. *)
let try_complete_request (co : _ core) (r : _ request) =
  match r.rkind with
  | Rsend ->
      (* The message was delivered eagerly at the start. *)
      r.rdone <- true;
      true
  | Rround round ->
      if round < Mpisim.Engine.nb_completed_rounds co.engine then begin
        (match r.rcell with
        | Some c ->
            co.set_cell c
              (Mpisim.Engine.nb_result co.engine ~round ~rank:r.rrank)
        | None -> ());
        r.rcell <- None;
        r.rdone <- true;
        true
      end
      else false
  | Rrecv { r_src; r_tag } -> (
      emit_event co (Dpor.EMail { dst = r.rrank });
      match
        Mpisim.Mailbox.recv co.mailbox ~dst:r.rrank ~src:r_src ~tag:r_tag
      with
      | Some m ->
          (match r.rcell with
          | Some c -> co.set_cell c m.Mpisim.Mailbox.value
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
let wake_waiters (co : _ core) =
  co.iter_tasks (fun t ->
      match t.Task.status with
      | Task.Blocked (Task.At_wait { rid; site }) -> (
          match Hashtbl.find_opt co.requests (t.Task.rank, rid) with
          | None -> ()
          | Some r ->
              if r.rdone then begin
                record_lifecycle co
                  (Double_wait
                     { rank = t.Task.rank; site; start_site = r.rsite });
                set_status co t Task.Runnable
              end
              else if try_complete_request co r then
                set_status co t Task.Runnable)
      | _ -> ())

(* Advance the engine's nonblocking rounds after a new post; a completed
   round may release waiters, a mismatched one aborts exactly like a
   blocking-collective mismatch. *)
let nb_drain (co : _ core) =
  match Mpisim.Engine.nb_advance co.engine with
  | [] -> ()
  | outcomes ->
      List.iter
        (function
          | Mpisim.Engine.Nb_mismatch { calls; _ } ->
              raise (Abort_exn (Fault (Mismatch calls)))
          | Mpisim.Engine.Nb_completed _ -> ())
        outcomes;
      wake_waiters co

let istart_round (co : _ core) task call ~cell ~site =
  emit_event co (Dpor.EColl { rank = task.Task.rank });
  let round =
    Mpisim.Engine.nb_post co.engine ~rank:task.Task.rank ~cookie:task.Task.id
      call
  in
  let rid =
    new_request co ~rank:task.Task.rank ~site (Rround round) ~cell
  in
  nb_drain co;
  rid

let istart_recv (co : _ core) task ~cell ~src ~tag ~site =
  emit_event co (Dpor.EMail { dst = task.Task.rank });
  new_request co ~rank:task.Task.rank ~site
    (Rrecv { r_src = src; r_tag = tag })
    ~cell:(Some cell)

(* [MPI_Wait]: completes the request or blocks until it is completable.
   Waiting an already-completed request is the double-wait violation; it
   returns immediately (the deterministic stand-in for MPI's
   use-after-free undefined behaviour). *)
let exec_wait (co : _ core) task ~rid ~site =
  emit_event co (Dpor.EColl { rank = task.Task.rank });
  let r = find_request co ~rank:task.Task.rank ~site rid in
  if r.rdone then
    record_lifecycle co
      (Double_wait { rank = task.Task.rank; site; start_site = r.rsite })
  else if not (try_complete_request co r) then
    set_status co task (Task.Blocked (Task.At_wait { rid; site }))

(* [MPI_Test]: never blocks; returns 1 (and completes the request) when
   completable, 0 otherwise.  Testing a completed request records the
   double wait and reports completion. *)
let exec_test (co : _ core) task ~rid ~site =
  emit_event co (Dpor.EColl { rank = task.Task.rank });
  let r = find_request co ~rank:task.Task.rank ~site rid in
  if r.rdone then begin
    record_lifecycle co
      (Double_wait { rank = task.Task.rank; site; start_site = r.rsite });
    1
  end
  else if try_complete_request co r then 1
  else 0

(* Requests still in flight when the job finished: the dynamic witness of
   the static request-leak warning. *)
let collect_leaks (co : _ core) =
  for rank = 0 to co.config.nranks - 1 do
    for rid = 0 to co.req_counts.(rank) - 1 do
      match Hashtbl.find_opt co.requests (rank, rid) with
      | Some r when not r.rdone ->
          record_lifecycle co (Leaked_request { rank; site = r.rsite })
      | Some _ | None -> ()
    done
  done

let do_send (co : _ core) task ~value ~dst ~tag ~site =
  if dst < 0 || dst >= co.config.nranks then
    fail_eval task.Task.rank site "send destination %d out of range" dst;
  emit_event co (Dpor.EMail { dst });
  Mpisim.Mailbox.send co.mailbox ~src:task.Task.rank ~dst ~tag ~value ~site;
  (* An eager send may unblock a matching receiver of [dst]. *)
  co.iter_tasks (fun t ->
      match t.Task.status with
      | Task.Blocked (Task.At_recv { src; tag; _ }) when t.Task.rank = dst -> (
          match Mpisim.Mailbox.recv co.mailbox ~dst ~src ~tag with
          | Some m ->
              (match t.Task.wait_cell with
              | Some cell -> co.set_cell cell m.Mpisim.Mailbox.value
              | None -> ());
              t.Task.wait_cell <- None;
              set_status co t Task.Runnable
          | None -> ())
      | _ -> ());
  (* ... or a task blocked in [MPI_Wait] on a matching [MPI_Irecv]. *)
  if Hashtbl.length co.requests > 0 then wake_waiters co

let istart_send (co : _ core) task ~value ~dst ~tag ~site =
  do_send co task ~value ~dst ~tag ~site;
  new_request co ~rank:task.Task.rank ~site Rsend ~cell:None

(* Source range already checked by the caller (before resolving the
   target cell, to match the reference's error order). *)
let recv_attempt (co : _ core) task cell ~src ~tag ~site =
  emit_event co (Dpor.EMail { dst = task.Task.rank });
  match Mpisim.Mailbox.recv co.mailbox ~dst:task.Task.rank ~src ~tag with
  | Some m -> co.set_cell cell m.Mpisim.Mailbox.value
  | None ->
      task.Task.wait_cell <- Some cell;
      set_status co task (Task.Blocked (Task.At_recv { src; tag; site }))

let critical_acquire (co : _ core) task ~name ~site =
  emit_event co (Dpor.ELock { rank = task.Task.rank; name });
  match
    Ompsim.Critical.acquire co.criticals.(task.Task.rank) ~name
      ~cookie:task.Task.id
  with
  | Ompsim.Critical.Acquired -> (
      match co.race with
      | Some r ->
          Raceck.acquire r ~task:task.Task.id ~rank:task.Task.rank ~name
      | None -> ())
  | Ompsim.Critical.Must_wait ->
      set_status co task (Task.Blocked (Task.At_critical { name; site }))

let critical_release (co : _ core) task name =
  emit_event co (Dpor.ELock { rank = task.Task.rank; name });
  (match co.race with
  | Some r -> Raceck.release r ~task:task.Task.id ~rank:task.Task.rank ~name
  | None -> ());
  match
    Ompsim.Critical.release co.criticals.(task.Task.rank) ~name
      ~cookie:task.Task.id
  with
  | None -> ()
  | Some next ->
      (* Lock handoff: the released waiter holds the critical section. *)
      (match co.race with
      | Some r -> Raceck.acquire r ~task:next ~rank:task.Task.rank ~name
      | None -> ());
      set_status co (co.find next) Task.Runnable

let finish_task (co : _ core) task =
  set_status co task Task.Finished;
  match task.Task.team with
  | None -> ()
  | Some team ->
      (* The forker joins every member; it stays blocked (so performs no
         accesses) until the last member has contributed its clock. *)
      (match co.race with
      | Some r ->
          Raceck.join r ~parent:team.Ompsim.Team.forker ~child:task.Task.id
      | None -> ());
      if Ompsim.Team.member_finished team then begin
        set_status co (co.find team.Ompsim.Team.forker) Task.Runnable
      end

(* ------------------------------------------------------------------ *)
(* State fingerprinting (shared half)                                   *)
(* ------------------------------------------------------------------ *)

(* The fingerprint is a hash of every semantically live component of the
   simulator state: task list (in scheduling order), continuation stacks
   with environment values, collective rendezvous slots, point-to-point
   inboxes, critical locks and concurrency counters.  Equal states hash
   equal by construction; the converse is heuristic (63-bit hash, plus
   environment *values* stand in for cell sharing structure) — see
   docs/PERFORMANCE.md for the soundness discussion. *)

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
      (* The creation-order team id (and the forker cookie) depend on the
         schedule that spawned the team; identify it by its logical
         coordinates instead. *)
      let coords =
        mix
          (mix (mix tm.Ompsim.Team.rank tm.Ompsim.Team.size)
             tm.Ompsim.Team.depth)
          tm.Ompsim.Team.finished
      in
      mix
        (mix coords (Ompsim.Barrier.waiting_count tm.Ompsim.Team.barrier))
        singles

(* One task's contribution, parameterised by the continuation hash and
   the cell reader of the interpreter core. *)
let task_hash_gen ~kont_hash ~cell_value h (t : _ Task.t) =
  (* No [t.id]: dynamic ids depend on spawn interleaving.  The logical
     identity is (rank, tid) plus the position in the fold. *)
  let h = mix h t.Task.rank in
  let h = mix h t.Task.tid in
  let h = mix h (Task.status_hash t.Task.status) in
  let h = mix h t.Task.single_depth in
  let h =
    mix h
      (match t.Task.wait_cell with
      | None -> 0x61c88647
      | Some c -> mix 0x2d51 (cell_value c))
  in
  let h = mix h (Task.encounters_hash t) in
  let h = mix h (team_opt_hash t.Task.team) in
  List.fold_left (fun h k -> mix h (kont_hash k)) h t.Task.konts

(* The non-continuation half of the state: collective rendezvous (rank
   order), mailboxes (FIFO order is semantic), criticals (sorted by name)
   and live concurrency counters (order-insensitive, zero entries elided —
   a region exited to zero must equal one never entered).  [pos_of_id]
   canonicalises dynamic task ids to scheduling-order positions. *)
let plumbing_hash (co : _ core) ~pos_of_id h =
  let h =
    List.fold_left
      (fun h (rc : Mpisim.Engine.rank_call) ->
        mix
          (mix (mix h rc.Mpisim.Engine.rank)
             (pos_of_id rc.Mpisim.Engine.cookie))
          (Hashtbl.hash
             ( Mpisim.Coll.signature rc.Mpisim.Engine.call,
               rc.Mpisim.Engine.call.Mpisim.Coll.payload )))
      h
      (Mpisim.Engine.pending co.engine)
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
          (mix (mix h rc.Mpisim.Engine.rank)
             (pos_of_id rc.Mpisim.Engine.cookie))
          (Hashtbl.hash
             ( Mpisim.Coll.signature rc.Mpisim.Engine.call,
               rc.Mpisim.Engine.call.Mpisim.Coll.payload )))
      h
      (Mpisim.Engine.nb_pending co.engine)
  in
  let rounds = Mpisim.Engine.nb_completed_rounds co.engine in
  let h = ref (mix h rounds) in
  for round = 0 to rounds - 1 do
    for rank = 0 to co.config.nranks - 1 do
      h := mix !h (Mpisim.Engine.nb_result co.engine ~round ~rank)
    done
  done;
  for rank = 0 to co.config.nranks - 1 do
    for rid = 0 to co.req_counts.(rank) - 1 do
      match Hashtbl.find_opt co.requests (rank, rid) with
      | None -> ()
      | Some r ->
          h := mix !h (Hashtbl.hash (rank, rid, r.rkind, r.rdone, r.rsite))
    done
  done;
  for rank = 0 to co.config.nranks - 1 do
    List.iter
      (fun (m : Mpisim.Mailbox.message) ->
        h :=
          mix !h
            (Hashtbl.hash
               ( m.Mpisim.Mailbox.src,
                 m.Mpisim.Mailbox.tag,
                 m.Mpisim.Mailbox.value )))
      (Mpisim.Mailbox.inbox co.mailbox rank);
    List.iter
      (fun (name, holder, waiters) ->
        h :=
          mix !h
            (Hashtbl.hash
               (name, Option.map pos_of_id holder, List.map pos_of_id waiters)))
      (Ompsim.Critical.state co.criticals.(rank))
  done;
  let counters =
    Hashtbl.fold
      (fun key n acc ->
        if n = 0 then acc else acc + (Hashtbl.hash (key, n) lor 1))
      co.counters 0
  in
  mix !h counters

(* ================================================================== *)
(* Reference core: the original AST tree-walker (equivalence oracle)    *)
(* ================================================================== *)

type rtask = (Task.kont, Env.cell) Task.t

type rstate = {
  core : (Task.kont, Env.cell) core;
  program : Ast.program;
  ids : stmt_ids option;  (** Canonical ids (probe runs). *)
  uids : int Ast.Stmt_tbl.t;  (** Dynamic fallback, numbered downwards. *)
  mutable next_uid : int;
  tasks : rtask list ref;  (** All tasks ever spawned, oldest first. *)
  task_tbl : (int, rtask) Hashtbl.t;
  mutable next_task_id : int;
}

(* Construct uids: canonical AST ids when a probe supplies them (so
   [single] arbitration keys — and hence fingerprints — are stable across
   schedules), dynamic encounter-order ids otherwise.  The dynamic
   numbering counts downwards from -1 so the two ranges never collide. *)
let dynamic_uid st stmt =
  match Ast.Stmt_tbl.find_opt st.uids stmt with
  | Some u -> u
  | None ->
      let u = st.next_uid in
      st.next_uid <- u - 1;
      Ast.Stmt_tbl.replace st.uids stmt u;
      u

let uid_of st stmt =
  match st.ids with
  | Some ids -> (
      match Ast.Stmt_tbl.find_opt ids stmt with
      | Some u -> u
      | None -> dynamic_uid st stmt)
  | None -> dynamic_uid st stmt

let spawn st ~rank ~tid ~team ~konts =
  let id = st.next_task_id in
  st.next_task_id <- id + 1;
  let t = Task.make ~id ~rank ~tid ~team ~konts in
  st.tasks := !(st.tasks) @ [ t ];
  Hashtbl.replace st.task_tbl id t;
  rq_insert st.core id;
  st.core.stats.tasks_spawned <- st.core.stats.tasks_spawned + 1;
  t

(* A block suffix is identified by its head statement: statements are
   physically unique AST nodes, so the canonical id of the head pins the
   whole remaining suffix. *)
let block_hash ids (b : Ast.block) =
  match b with
  | [] -> 0x27d4eb2f
  | s :: _ -> (
      match Ast.Stmt_tbl.find_opt ids s with
      | Some u -> u + 0x100
      | None -> Hashtbl.hash s.Ast.sloc)

let env_hash (env : Env.t) =
  Env.StringMap.fold
    (fun name cell h -> mix (mix h (Hashtbl.hash name)) !cell)
    env 0x51ed270b

let kont_hash ids (k : Task.kont) =
  match k with
  | Task.Kseq (b, env) -> mix (mix 1 (block_hash ids b)) (env_hash env)
  | Task.Kwhile (c, body, env) ->
      mix (mix (mix 2 (Hashtbl.hash c)) (block_hash ids body)) (env_hash env)
  | Task.Kfor { var; current; stop; body; env } ->
      mix
        (mix
           (mix (mix (mix 3 (Hashtbl.hash var)) current) stop)
           (block_hash ids body))
        (env_hash env)
  | Task.Kcall_return -> 4
  | Task.Kenter_single -> 5
  | Task.Kexit_single { team; nowait } ->
      mix (mix 6 (team_opt_hash team)) (Bool.to_int nowait)
  | Task.Kexit_ws { team; nowait } ->
      mix (mix 7 (team_opt_hash team)) (Bool.to_int nowait)
  | Task.Kcritical_end name -> mix 8 (Hashtbl.hash name)
  | Task.Kreduce_combine { op; shared; private_ } ->
      mix (mix (mix 9 (Hashtbl.hash op)) !shared) !private_

let state_hash st ids =
  (* Dynamic task ids (engine cookies, lock owners) depend on the spawn
     interleaving; canonicalise each to the task's position in
     scheduling order before it enters the hash. *)
  let pos_of_id =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i (t : rtask) -> Hashtbl.replace tbl t.Task.id i) !(st.tasks);
    fun id -> match Hashtbl.find_opt tbl id with Some i -> i | None -> -1
  in
  (* Task order matters (round-robin indexing), so fold in sequence. *)
  let h =
    List.fold_left
      (fun h t ->
        task_hash_gen ~kont_hash:(kont_hash ids) ~cell_value:( ! ) h t)
      0x811c9dc5 !(st.tasks)
  in
  plumbing_hash st.core ~pos_of_id h

(* ------------------------------------------------------------------ *)
(* Reference expression evaluation                                      *)
(* ------------------------------------------------------------------ *)

let rec eval st (task : rtask) env site (e : Ast.expr) =
  match e with
  | Ast.Int n -> n
  | Ast.Bool b -> if b then 1 else 0
  | Ast.Var x -> (
      try Env.lookup x env
      with Env.Unbound x ->
        fail_eval task.Task.rank site "unbound variable '%s'" x)
  | Ast.Rank -> task.Task.rank
  | Ast.Size -> st.core.config.nranks
  | Ast.Tid -> task.Task.tid
  | Ast.Nthreads -> Task.team_size task
  | Ast.Unop (Neg, e) -> -eval st task env site e
  | Ast.Unop (Not, e) -> if eval st task env site e = 0 then 1 else 0
  | Ast.Binop (op, a, b) -> (
      let x = eval st task env site a in
      match op with
      | And -> if x = 0 then 0 else min 1 (abs (eval st task env site b))
      | Or -> if x <> 0 then 1 else min 1 (abs (eval st task env site b))
      | _ -> (
          let y = eval st task env site b in
          let bool_of c = if c then 1 else 0 in
          match op with
          | Add -> x + y
          | Sub -> x - y
          | Mul -> x * y
          | Div ->
              if y = 0 then fail_eval task.Task.rank site "division by zero"
              else x / y
          | Mod ->
              if y = 0 then fail_eval task.Task.rank site "modulo by zero"
              else x mod y
          | Eq -> bool_of (x = y)
          | Ne -> bool_of (x <> y)
          | Lt -> bool_of (x < y)
          | Le -> bool_of (x <= y)
          | Gt -> bool_of (x > y)
          | Ge -> bool_of (x >= y)
          | And | Or -> assert false))

let call_of_collective st (task : rtask) env site (c : Ast.collective) =
  let ev e = eval st task env site e in
  let root e =
    let r = ev e in
    if r < 0 || r >= st.core.config.nranks then
      fail_eval task.Task.rank site "collective root %d out of range" r
    else r
  in
  let make kind ?op ?root ~payload () =
    Mpisim.Coll.make kind ?op ?root ~payload ~site ()
  in
  match c with
  | Barrier -> make Mpisim.Coll.Barrier ~payload:0 ()
  | Bcast { root = r; value } ->
      make Mpisim.Coll.Bcast ~root:(root r) ~payload:(ev value) ()
  | Reduce { op; root = r; value } ->
      make Mpisim.Coll.Reduce ~op:(op_of_ast op) ~root:(root r)
        ~payload:(ev value) ()
  | Allreduce { op; value } ->
      make Mpisim.Coll.Allreduce ~op:(op_of_ast op) ~payload:(ev value) ()
  | Gather { root = r; value } ->
      make Mpisim.Coll.Gather ~root:(root r) ~payload:(ev value) ()
  | Scatter { root = r; value } ->
      make Mpisim.Coll.Scatter ~root:(root r) ~payload:(ev value) ()
  | Allgather { value } -> make Mpisim.Coll.Allgather ~payload:(ev value) ()
  | Alltoall { value } -> make Mpisim.Coll.Alltoall ~payload:(ev value) ()
  | Scan { op; value } ->
      make Mpisim.Coll.Scan ~op:(op_of_ast op) ~payload:(ev value) ()
  | Reduce_scatter { op; value } ->
      make Mpisim.Coll.Reduce_scatter ~op:(op_of_ast op) ~payload:(ev value) ()

let exec_check st (task : rtask) site (check : Ast.check) =
  match check with
  | Ast.Cc_next_collective { color; coll_name } ->
      cc_arrive st.core task ~color
        ~site:(Printf.sprintf "%s (next: %s)" site coll_name)
  | Ast.Cc_return ->
      cc_arrive st.core task ~color:Ast.cc_return_color
        ~site:(Printf.sprintf "%s (function exit)" site)
  | Ast.Assert_monothread { region } ->
      ignore region;
      check_assert_mono st.core task ~site
  | Ast.Count_enter { region } -> check_count_enter st.core task ~region ~site
  | Ast.Count_exit { region } -> check_count_exit st.core task ~region

(* Execute the posting half of a split-phase operation; returns the fresh
   request id the caller binds to the request variable. *)
let exec_istart st (task : rtask) env site (rop : Ast.request_op) =
  let ev e = eval st task env site e in
  let cell_of x =
    try Env.cell x env
    with Env.Unbound x -> fail_eval task.Task.rank site "unbound variable '%s'" x
  in
  enforce_thread_level st.core task site;
  match rop with
  | Ast.Ibarrier ->
      istart_round st.core task
        (Mpisim.Coll.make Mpisim.Coll.Barrier ~payload:0 ~site ())
        ~cell:None ~site
  | Ast.Iallreduce { op; target; value } ->
      let payload = ev value in
      let cell = cell_of target in
      istart_round st.core task
        (Mpisim.Coll.make Mpisim.Coll.Allreduce ~op:(op_of_ast op) ~payload
           ~site ())
        ~cell:(Some cell) ~site
  | Ast.Isend { value; dest; tag } ->
      let v = ev value and dst = ev dest and tag = ev tag in
      istart_send st.core task ~value:v ~dst ~tag ~site
  | Ast.Irecv { target; src; tag } ->
      let src = ev src and tag = ev tag in
      if
        src <> Mpisim.Mailbox.any_source
        && (src < 0 || src >= st.core.config.nranks)
      then fail_eval task.Task.rank site "receive source %d out of range" src;
      let cell = cell_of target in
      istart_recv st.core task ~cell ~src ~tag ~site

let push_single_body (task : rtask) body env ~team ~nowait =
  task.Task.konts <-
    Task.Kenter_single
    :: Task.Kseq (body, env)
    :: Task.Kexit_single { team; nowait }
    :: task.Task.konts

let exec_stmt st (task : rtask) (s : Ast.stmt) env =
  let site = Loc.to_string s.Ast.sloc in
  let ev e = eval st task env site e in
  match s.Ast.sdesc with
  | Ast.Decl _ | Ast.Istart _ ->
      assert false (* handled in [step] to thread the env *)
  | Ast.Wait { req } ->
      let rid =
        try Env.lookup req env
        with Env.Unbound x ->
          fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      exec_wait st.core task ~rid ~site
  | Ast.Test { target; req } -> (
      let rid =
        try Env.lookup req env
        with Env.Unbound x ->
          fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      let v = exec_test st.core task ~rid ~site in
      try Env.assign target v env
      with Env.Unbound x ->
        fail_eval task.Task.rank site "unbound variable '%s'" x)
  | Ast.Assign (x, e) -> (
      let v = ev e in
      try Env.assign x v env
      with Env.Unbound x ->
        fail_eval task.Task.rank site "unbound variable '%s'" x)
  | Ast.If (c, bt, bf) ->
      let branch = if ev c <> 0 then bt else bf in
      task.Task.konts <- Task.Kseq (branch, env) :: task.Task.konts
  | Ast.While (c, body) ->
      task.Task.konts <- Task.Kwhile (c, body, env) :: task.Task.konts
  | Ast.For (x, lo, hi, body) ->
      let l = ev lo and h = ev hi in
      task.Task.konts <-
        Task.Kfor { var = x; current = l; stop = h; body; env }
        :: task.Task.konts
  | Ast.Return ->
      let rec unwind = function
        | [] -> []
        | Task.Kcall_return :: rest -> rest
        | _ :: rest -> unwind rest
      in
      task.Task.konts <- unwind task.Task.konts
  | Ast.Call (fname, args) -> (
      match Ast.find_func st.program fname with
      | None -> fail_eval task.Task.rank site "undefined function '%s'" fname
      | Some f ->
          if List.length f.Ast.params <> List.length args then
            fail_eval task.Task.rank site "arity mismatch calling '%s'" fname;
          let env0 =
            List.fold_left2
              (fun acc p a -> Env.declare p (ev a) acc)
              Env.empty f.Ast.params args
          in
          task.Task.konts <-
            Task.Kseq (f.Ast.body, env0) :: Task.Kcall_return :: task.Task.konts)
  | Ast.Compute e ->
      let n = ev e in
      st.core.stats.work <- st.core.stats.work + max 0 n
  | Ast.Print e ->
      let v = ev e in
      if st.core.config.record_trace then
        st.core.stats.trace <-
          (task.Task.rank, task.Task.tid, v) :: st.core.stats.trace
  | Ast.Coll (target, c) ->
      enforce_thread_level st.core task site;
      let call = call_of_collective st task env site c in
      let cell =
        match target with
        | None -> None
        | Some x -> (
            try Some (Env.cell x env)
            with Env.Unbound x ->
              fail_eval task.Task.rank site "unbound variable '%s'" x)
      in
      collective_arrive st.core task call cell
  | Ast.Check check -> exec_check st task site check
  | Ast.Send { value; dest; tag } ->
      enforce_thread_level st.core task site;
      let v = ev value and dst = ev dest and tag = ev tag in
      do_send st.core task ~value:v ~dst ~tag ~site
  | Ast.Recv { target; src; tag } ->
      enforce_thread_level st.core task site;
      let src = ev src and tag = ev tag in
      if
        src <> Mpisim.Mailbox.any_source && (src < 0 || src >= st.core.config.nranks)
      then fail_eval task.Task.rank site "receive source %d out of range" src;
      let cell =
        try Env.cell target env
        with Env.Unbound x ->
          fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      recv_attempt st.core task cell ~src ~tag ~site
  | Ast.Omp_parallel { num_threads; body } ->
      let n =
        match num_threads with
        | None -> st.core.config.default_nthreads
        | Some e -> ev e
      in
      if n <= 0 then
        fail_eval task.Task.rank site "num_threads(%d) must be positive" n;
      let team =
        Ompsim.Team.create ~rank:task.Task.rank ~size:n ~parent:task.Task.team
          ~forker:task.Task.id
      in
      for tid = 0 to n - 1 do
        ignore
          (spawn st ~rank:task.Task.rank ~tid ~team:(Some team)
             ~konts:[ Task.Kseq (body, env) ])
      done;
      set_status st.core task (Task.Blocked Task.At_join)
  | Ast.Omp_single { nowait; body } -> (
      match task.Task.team with
      | None -> push_single_body task body env ~team:None ~nowait:true
      | Some team ->
          let uid = uid_of st s in
          let instance = Task.next_instance task uid in
          if Ompsim.Team.claim_single team ~construct:uid ~instance then
            push_single_body task body env ~team:(Some team) ~nowait
          else if not nowait then barrier_arrive st.core task team ~site)
  | Ast.Omp_master body -> (
      match task.Task.team with
      | None -> push_single_body task body env ~team:None ~nowait:true
      | Some _ ->
          if task.Task.tid = 0 then
            push_single_body task body env ~team:None ~nowait:true)
  | Ast.Omp_critical (name, body) ->
      let name = Option.value name ~default:Ompsim.Critical.anonymous in
      task.Task.konts <-
        Task.Kseq (body, env) :: Task.Kcritical_end name :: task.Task.konts;
      critical_acquire st.core task ~name ~site
  | Ast.Omp_barrier -> (
      match task.Task.team with
      | None -> ()
      | Some team -> barrier_arrive st.core task team ~site)
  | Ast.Omp_for { var; lo; hi; nowait; reduction; body } ->
      let l = ev lo and h = ev hi in
      let start, stop =
        match task.Task.team with
        | None -> (l, h)
        | Some team ->
            Ompsim.Schedule.chunk ~lo:l ~hi:h ~tid:task.Task.tid
              ~nthreads:team.Ompsim.Team.size
      in
      let env, combine_konts =
        match reduction with
        | None -> (env, [])
        | Some (op, x) ->
            let shared =
              try Env.cell x env
              with Env.Unbound x ->
                fail_eval task.Task.rank site "unbound reduction variable '%s'"
                  x
            in
            let private_ = ref (reduction_identity op) in
            ( Env.StringMap.add x private_ env,
              [ Task.Kreduce_combine { op; shared; private_ } ] )
      in
      task.Task.konts <-
        (Task.Kfor { var; current = start; stop; body; env } :: combine_konts)
        @ Task.Kexit_ws { team = task.Task.team; nowait }
          :: task.Task.konts
  | Ast.Omp_sections { nowait; sections } ->
      let mine =
        match task.Task.team with
        | None -> List.mapi (fun i _ -> i) sections
        | Some team ->
            Ompsim.Schedule.sections_for ~count:(List.length sections)
              ~tid:task.Task.tid ~nthreads:team.Ompsim.Team.size
      in
      let konts_for_sections =
        List.concat_map
          (fun i ->
            let sec = List.nth sections i in
            [
              Task.Kenter_single;
              Task.Kseq (sec, env);
              Task.Kexit_single { team = None; nowait = true };
            ])
          mine
      in
      task.Task.konts <-
        konts_for_sections
        @ (Task.Kexit_ws { team = task.Task.team; nowait } :: task.Task.konts)

let step st (task : rtask) =
  match task.Task.konts with
  | [] -> finish_task st.core task
  | k :: rest -> (
      match k with
      | Task.Kseq ([], _) -> task.Task.konts <- rest
      | Task.Kseq (s :: ss, env) -> (
          match s.Ast.sdesc with
          | Ast.Decl (x, e) ->
              let v = eval st task env (Loc.to_string s.Ast.sloc) e in
              task.Task.konts <- Task.Kseq (ss, Env.declare x v env) :: rest
          | Ast.Istart { req; rop } ->
              (* Like [Decl]: binds the request variable (to the fresh
                 request id) for the rest of the block. *)
              let rid = exec_istart st task env (Loc.to_string s.Ast.sloc) rop in
              task.Task.konts <-
                Task.Kseq (ss, Env.declare req rid env) :: rest
          | _ ->
              task.Task.konts <- Task.Kseq (ss, env) :: rest;
              exec_stmt st task s env)
      | Task.Kwhile (c, body, env) ->
          if eval st task env "<while>" c <> 0 then
            task.Task.konts <- Task.Kseq (body, env) :: task.Task.konts
          else task.Task.konts <- rest
      | Task.Kfor ({ current; stop; var; body; env; _ } as f) ->
          if current < stop then begin
            let env = Env.declare var current env in
            f.current <- current + 1;
            task.Task.konts <- Task.Kseq (body, env) :: task.Task.konts
          end
          else task.Task.konts <- rest
      | Task.Kcall_return -> task.Task.konts <- rest
      | Task.Kenter_single ->
          task.Task.single_depth <- task.Task.single_depth + 1;
          task.Task.konts <- rest
      | Task.Kexit_single { team; nowait } -> (
          task.Task.single_depth <- max 0 (task.Task.single_depth - 1);
          task.Task.konts <- rest;
          match team with
          | Some tm when not nowait ->
              barrier_arrive st.core task tm ~site:"<end single>"
          | Some _ | None -> ())
      | Task.Kexit_ws { team; nowait } -> (
          task.Task.konts <- rest;
          match team with
          | Some tm when not nowait ->
              barrier_arrive st.core task tm ~site:"<end worksharing>"
          | Some _ | None -> ())
      | Task.Kreduce_combine { op; shared; private_ } ->
          shared := apply_reduce_op op !shared !private_;
          task.Task.konts <- rest
      | Task.Kcritical_end name ->
          task.Task.konts <- rest;
          critical_release st.core task name)

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

(** The original AST-walking interpreter, kept as the equivalence oracle
    for the compiled core.  Same contract as {!run} (including [probe]
    support); its scheduler deliberately keeps the historical
    [List.filter]+[List.nth] runnable selection.
    @raise Invalid_argument if the entry function is missing or takes
    parameters. *)
let run_reference ?(config = default_config) ?probe (program : Ast.program) =
  let entry =
    match Ast.find_func program config.entry with
    | Some f -> f
    | None ->
        invalid_arg
          (Printf.sprintf "Sim.run: no entry function '%s'" config.entry)
  in
  if entry.Ast.params <> [] then
    invalid_arg "Sim.run: the entry function must take no parameters";
  (* Probe runs only ever branch within the fingerprinted window, so the
     degree buffer shrinks to match; plain runs keep the historical cap. *)
  let degree_cap = match probe with Some p -> p.fp_depth + 1 | None -> 64 in
  let task_tbl = Hashtbl.create 64 in
  let tasks = ref [] in
  let core =
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
      find = (fun id -> Hashtbl.find task_tbl id);
      set_cell = (fun c v -> c := v);
      iter_tasks = (fun f -> List.iter f !tasks);
      rq = Array.make 8 0;
      nrq = 0;
      race = None;
      events = None;
    }
  in
  let st =
    {
      core;
      program;
      ids = Option.map (fun (p : probe) -> p.ids) probe;
      uids = Ast.Stmt_tbl.create 64;
      next_uid = -1;
      tasks;
      task_tbl;
      next_task_id = 0;
    }
  in
  for rank = 0 to config.nranks - 1 do
    ignore
      (spawn st ~rank ~tid:0 ~team:None
         ~konts:[ Task.Kseq (entry.Ast.body, Env.empty) ])
  done;
  let rng =
    match config.schedule with
    | `Random seed -> Some (Random.State.make [| seed |])
    | `Round_robin | `Scripted _ -> None
  in
  let script =
    ref (match config.schedule with `Scripted l -> l | _ -> [])
  in
  let cursor = ref 0 in
  let pick () =
    let runnable = List.filter Task.is_runnable !(st.tasks) in
    match runnable with
    | [] -> None
    | _ -> (
        let n = List.length runnable in
        if core.stats.ndegrees < degree_cap then begin
          core.stats.degrees.(core.stats.ndegrees) <- n;
          core.stats.ndegrees <- core.stats.ndegrees + 1
        end;
        match (rng, !script) with
        | Some rng, _ -> Some (List.nth runnable (Random.State.int rng n))
        | None, choice :: rest ->
            script := rest;
            Some (List.nth runnable (((choice mod n) + n) mod n))
        | None, [] ->
            (* Round-robin over the task list. *)
            let t = List.nth runnable (!cursor mod n) in
            incr cursor;
            Some t)
  in
  let record_fp =
    match probe with
    | None -> fun () -> ()
    | Some p ->
        p.fp_recorded <- 0;
        fun () ->
          if
            core.stats.steps <= p.fp_depth && p.fp_recorded = core.stats.steps
          then begin
            p.fingerprints.(core.stats.steps) <- state_hash st p.ids;
            p.fp_recorded <- core.stats.steps + 1
          end
  in
  let outcome =
    try
      let rec loop () =
        if core.stats.steps >= config.max_steps then Step_limit
        else begin
          record_fp ();
          match pick () with
          | Some task ->
              core.stats.steps <- core.stats.steps + 1;
              step st task;
              loop ()
          | None ->
              if
                List.for_all
                  (fun (t : rtask) -> t.Task.status = Task.Finished)
                  !(st.tasks)
              then Finished
              else
                Deadlock
                  (List.filter_map
                     (fun (t : rtask) ->
                       match t.Task.status with
                       | Task.Blocked _ -> Some (Task.describe t)
                       | Task.Runnable | Task.Finished -> None)
                     !(st.tasks))
        end
      in
      loop ()
    with Abort_exn o -> o
  in
  if outcome = Finished then collect_leaks core;
  {
    outcome;
    stats = core.stats;
    engine = core.engine;
    lifecycle = List.rev core.lifecycle;
  }

(* ================================================================== *)
(* Compiled core: executes the slot-resolved form of {!Compile}          *)
(* ================================================================== *)

(* Continuations over compiled blocks: a [CKseq] is a program counter
   into a statement array (advancing allocates nothing), loops carry
   their pre-compiled bodies, pre-hashed names/operators and the scope
   descriptor that reproduces the reference environment hash. *)
type ckont =
  | CKseq of { code : Compile.cblock; mutable pc : int; frame : Compile.frame }
  | CKwhile of {
      cond : Compile.exprc;
      chash : int;
      scope : Compile.scope;
      cacc : Compile.access array;
      wsite : string;  (** The while statement's source site. *)
      body : Compile.cblock;
      frame : Compile.frame;
    }
  | CKfor of {
      slot : int;
      vhash : int;
      mutable current : int;
      stop : int;
      scope : Compile.scope;
      body : Compile.cblock;
      frame : Compile.frame;
    }
  | CKcall_return
  | CKenter_single
  | CKexit_single of { team : Ompsim.Team.t option; nowait : bool }
  | CKexit_ws of { team : Ompsim.Team.t option; nowait : bool }
  | CKcritical_end of { name : string; nhash : int }
  | CKreduce_combine of {
      op : Ast.reduce_op;
      ophash : int;
      shared : Compile.loc;
      private_ : Compile.loc;
    }

type ctask = (ckont, Compile.loc) Task.t

(* Tasks live in a dense growable array: ids are assigned 0,1,2,… in
   spawn order, so the id doubles as the array index ([core.find] is an
   array load) and as the canonical scheduling-order position used by
   fingerprints.  The scheduler draws from [core.rq]; the wake-up scans
   walk [live] instead of every task ever spawned. *)
type cstate = {
  core : (ckont, Compile.loc) core;
  ctasks : ctask array ref;
  ectxs : Compile.ectx array ref;
  ntasks : int ref;
  live : int array ref;
      (** Ids of tasks in spawn order ([nlive] valid), including finished
          ones not yet dropped: [core.iter_tasks] drops them as it walks,
          and the end of the run compacts the rest. *)
  nlive : int ref;
  fresh_fid : unit -> int;
      (** Creation-time frame identity for the DPOR recorder (frames of
          runs sharing a schedule prefix get equal ids); [-1] — the
          lazy-assignment sentinel — otherwise. *)
}

let dummy_ctask : ctask =
  Task.make ~id:(-1) ~rank:(-1) ~tid:0 ~team:None ~konts:[]

let dummy_ectx =
  { Compile.e_rank = 0; e_tid = 0; e_nthreads = 1; e_nranks = 1 }

let cspawn st ~rank ~tid ~team ~konts =
  let id = !(st.ntasks) in
  if id >= Array.length !(st.ctasks) then begin
    let cap = 2 * Array.length !(st.ctasks) in
    let ts = Array.make cap dummy_ctask in
    Array.blit !(st.ctasks) 0 ts 0 id;
    st.ctasks := ts;
    let es = Array.make cap dummy_ectx in
    Array.blit !(st.ectxs) 0 es 0 id;
    st.ectxs := es;
    let live = Array.make cap 0 in
    Array.blit !(st.live) 0 live 0 !(st.nlive);
    st.live := live
  end;
  let t = Task.make ~id ~rank ~tid ~team ~konts in
  !(st.ctasks).(id) <- t;
  !(st.ectxs).(id) <-
    {
      Compile.e_rank = rank;
      e_tid = tid;
      e_nthreads = Ompsim.Team.size_of team;
      e_nranks = st.core.config.nranks;
    };
  st.ntasks := id + 1;
  !(st.live).(!(st.nlive)) <- id;
  incr st.nlive;
  rq_insert st.core id;
  st.core.stats.tasks_spawned <- st.core.stats.tasks_spawned + 1;
  t

(* ------------------------------------------------------------------ *)
(* Compiled-state fingerprints (bit-identical to the reference's)       *)
(* ------------------------------------------------------------------ *)

(* Replays [env_hash]: scope entries are sorted by name, values read from
   the live frames. *)
let scope_hash (sc : Compile.scope) (frame : Compile.frame) =
  let h = ref 0x51ed270b in
  for i = 0 to Array.length sc - 1 do
    let e = sc.(i) in
    let fr = Compile.up frame e.Compile.se_hops in
    h := mix (mix !h e.Compile.se_nhash) fr.Compile.slots.(e.Compile.se_slot)
  done;
  !h

let ckont_hash (k : ckont) =
  match k with
  | CKseq { code; pc; frame } ->
      mix (mix 1 code.Compile.bhash.(pc)) (scope_hash code.Compile.scopes.(pc) frame)
  | CKwhile { chash; scope; body; frame; _ } ->
      mix (mix (mix 2 chash) body.Compile.bhash.(0)) (scope_hash scope frame)
  | CKfor { vhash; current; stop; scope; body; frame; _ } ->
      mix
        (mix (mix (mix (mix 3 vhash) current) stop) body.Compile.bhash.(0))
        (scope_hash scope frame)
  | CKcall_return -> 4
  | CKenter_single -> 5
  | CKexit_single { team; nowait } ->
      mix (mix 6 (team_opt_hash team)) (Bool.to_int nowait)
  | CKexit_ws { team; nowait } ->
      mix (mix 7 (team_opt_hash team)) (Bool.to_int nowait)
  | CKcritical_end { nhash; _ } -> mix 8 nhash
  | CKreduce_combine { ophash; shared; private_; _ } ->
      mix (mix (mix 9 ophash) (Compile.read_loc shared)) (Compile.read_loc private_)

let cstate_hash st =
  let h = ref 0x811c9dc5 in
  let tasks = !(st.ctasks) in
  for i = 0 to !(st.ntasks) - 1 do
    h :=
      task_hash_gen ~kont_hash:ckont_hash ~cell_value:Compile.read_loc !h
        tasks.(i)
  done;
  (* Compiled task ids are already scheduling-order positions. *)
  plumbing_hash st.core ~pos_of_id:(fun id -> id) !h

(* ------------------------------------------------------------------ *)
(* Compiled statement execution                                         *)
(* ------------------------------------------------------------------ *)

let loc_of_vref frame (vr : Compile.vref) =
  {
    Compile.l_frame = Compile.up frame vr.Compile.v_hops;
    l_slot = vr.Compile.v_slot;
  }

let cpush_single_body (task : ctask) body frame ~team ~nowait =
  task.Task.konts <-
    CKenter_single
    :: CKseq { code = body; pc = 0; frame }
    :: CKexit_single { team; nowait }
    :: task.Task.konts

(* Feed the recorded slot accesses of one executed statement (or one
   loop-back condition re-evaluation) to the race oracle and, as
   footprints, to the DPOR recorder — and screen them against the
   destination buffers of in-flight requests: touching the target of an
   [MPI_Irecv]/[MPI_Iallreduce] before its completion is the
   use-before-completion lifecycle violation (compiled core only, like
   the slot-access recording itself). *)
let crecord_accesses st (task : ctask) ~site ~frame acc =
  if Hashtbl.length st.core.requests > 0 then
    Array.iter
      (fun (a : Compile.access) ->
        let fr = Compile.up frame a.Compile.a_hops in
        Hashtbl.iter
          (fun _ (r : Compile.loc request) ->
            if not r.rdone then
              match r.rcell with
              | Some l
                when l.Compile.l_frame == fr
                     && l.Compile.l_slot = a.Compile.a_slot ->
                  record_lifecycle st.core
                    (Stale_read
                       { rank = task.Task.rank; site; start_site = r.rsite })
              | Some _ | None -> ())
          st.core.requests)
      acc;
  (match st.core.events with
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
  match st.core.race with
  | None -> ()
  | Some r ->
      Array.iter
        (Raceck.access r ~task:task.Task.id ~rank:task.Task.rank ~site ~frame)
        acc

let cexec_stmt st (task : ctask) (cs : Compile.cstmt) frame =
  let ec = !(st.ectxs).(task.Task.id) in
  let site = cs.Compile.site in
  if Array.length cs.Compile.acc > 0 then
    crecord_accesses st task ~site ~frame cs.Compile.acc;
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
      task.Task.konts <- CKseq { code = branch; pc = 0; frame } :: task.Task.konts
  | Compile.CWhile { cond; chash; scope; cacc; body } ->
      task.Task.konts <-
        CKwhile { cond; chash; scope; cacc; wsite = site; body; frame }
        :: task.Task.konts
  | Compile.CFor { slot; vhash; lo; hi; scope; body } ->
      let l = lo ec frame in
      let h = hi ec frame in
      task.Task.konts <-
        CKfor { slot; vhash; current = l; stop = h; scope; body; frame }
        :: task.Task.konts
  | Compile.CReturn ->
      let rec unwind = function
        | [] -> []
        | CKcall_return :: rest -> rest
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
        CKseq { code = target.Compile.f_body; pc = 0; frame = nf }
        :: CKcall_return :: task.Task.konts
  | Compile.CCompute e ->
      let n = e ec frame in
      st.core.stats.work <- st.core.stats.work + Int.max 0 n
  | Compile.CPrint e ->
      let v = e ec frame in
      if st.core.config.record_trace then
        st.core.stats.trace <-
          (task.Task.rank, task.Task.tid, v) :: st.core.stats.trace
  | Compile.CColl { target; coll } ->
      enforce_thread_level st.core task site;
      (* Payload before root: the evaluation order of the reference's
         labelled-argument construction. *)
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
      collective_arrive st.core task call cell
  | Compile.CCheck check -> (
      match check with
      | Compile.KCc_next { color; csite } ->
          cc_arrive st.core task ~color ~site:csite
      | Compile.KCc_return { csite } ->
          cc_arrive st.core task ~color:Ast.cc_return_color ~site:csite
      | Compile.KAssert_mono -> check_assert_mono st.core task ~site
      | Compile.KCount_enter region ->
          check_count_enter st.core task ~region ~site
      | Compile.KCount_exit region -> check_count_exit st.core task ~region)
  | Compile.CSend { value; dest; tag } ->
      enforce_thread_level st.core task site;
      let v = value ec frame in
      let dst = dest ec frame in
      let tag = tag ec frame in
      do_send st.core task ~value:v ~dst ~tag ~site
  | Compile.CRecv { target; src; tag } ->
      enforce_thread_level st.core task site;
      let src = src ec frame in
      let tag = tag ec frame in
      if src <> Mpisim.Mailbox.any_source && (src < 0 || src >= st.core.config.nranks)
      then fail_eval task.Task.rank site "receive source %d out of range" src;
      let cell =
        match target with
        | Compile.CRef vr -> loc_of_vref frame vr
        | Compile.CUnbound x ->
            fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      recv_attempt st.core task cell ~src ~tag ~site
  | Compile.CIstart { rslot; rop } ->
      enforce_thread_level st.core task site;
      let cell_of = function
        | Compile.CRef vr -> loc_of_vref frame vr
        | Compile.CUnbound x ->
            fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      let rid =
        match rop with
        | Compile.KIbarrier ->
            istart_round st.core task
              (Mpisim.Coll.make Mpisim.Coll.Barrier ~payload:0 ~site ())
              ~cell:None ~site
        | Compile.KIallreduce { op; target; value } ->
            let payload = value ec frame in
            let cell = cell_of target in
            istart_round st.core task
              (Mpisim.Coll.make Mpisim.Coll.Allreduce ~op ~payload ~site ())
              ~cell:(Some cell) ~site
        | Compile.KIsend { value; dest; tag } ->
            let v = value ec frame in
            let dst = dest ec frame in
            let tag = tag ec frame in
            istart_send st.core task ~value:v ~dst ~tag ~site
        | Compile.KIrecv { target; src; tag } ->
            let src = src ec frame in
            let tag = tag ec frame in
            if
              src <> Mpisim.Mailbox.any_source
              && (src < 0 || src >= st.core.config.nranks)
            then
              fail_eval task.Task.rank site "receive source %d out of range"
                src;
            let cell = cell_of target in
            istart_recv st.core task ~cell ~src ~tag ~site
      in
      frame.Compile.slots.(rslot) <- rid
  | Compile.CWait { req } ->
      let rid =
        match req with
        | Compile.CRef vr -> Compile.read_loc (loc_of_vref frame vr)
        | Compile.CUnbound x ->
            fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      exec_wait st.core task ~rid ~site
  | Compile.CTest { target; req } -> (
      let rid =
        match req with
        | Compile.CRef vr -> Compile.read_loc (loc_of_vref frame vr)
        | Compile.CUnbound x ->
            fail_eval task.Task.rank site "unbound variable '%s'" x
      in
      let v = exec_test st.core task ~rid ~site in
      match target with
      | Compile.CRef vr -> Compile.write_loc (loc_of_vref frame vr) v
      | Compile.CUnbound x ->
          fail_eval task.Task.rank site "unbound variable '%s'" x)
  | Compile.CPar { num_threads; nslots; body } ->
      let n =
        match num_threads with
        | None -> st.core.config.default_nthreads
        | Some f -> f ec frame
      in
      if n <= 0 then
        fail_eval task.Task.rank site "num_threads(%d) must be positive" n;
      (* Task ids — and with them the deterministic round-robin tail of
         every explored schedule — are assigned in spawn order, so
         spawns do not commute. *)
      emit_event st.core Dpor.ESpawn;
      let team =
        Ompsim.Team.create ~rank:task.Task.rank ~size:n ~parent:task.Task.team
          ~forker:task.Task.id
      in
      for tid = 0 to n - 1 do
        let fr = Compile.child_frame ~fid:(st.fresh_fid ()) ~parent:frame nslots in
        let child =
          cspawn st ~rank:task.Task.rank ~tid ~team:(Some team)
            ~konts:[ CKseq { code = body; pc = 0; frame = fr } ]
        in
        match st.core.race with
        | Some r -> Raceck.fork r ~parent:task.Task.id ~child:child.Task.id
        | None -> ()
      done;
      set_status st.core task (Task.Blocked Task.At_join)
  | Compile.CSingle { nowait; body } -> (
      match task.Task.team with
      | None -> cpush_single_body task body frame ~team:None ~nowait:true
      | Some team ->
          let instance = Task.next_instance task cs.Compile.uid in
          (* Claim arbitration: whichever team member claims first runs
             the body, so claims of one instance do not commute. *)
          emit_event st.core
            (Dpor.ESingle
               {
                 forker = team.Ompsim.Team.forker;
                 uid = cs.Compile.uid;
                 instance;
               });
          if Ompsim.Team.claim_single team ~construct:cs.Compile.uid ~instance
          then cpush_single_body task body frame ~team:(Some team) ~nowait
          else if not nowait then barrier_arrive st.core task team ~site)
  | Compile.CMaster body -> (
      match task.Task.team with
      | None -> cpush_single_body task body frame ~team:None ~nowait:true
      | Some _ ->
          if task.Task.tid = 0 then
            cpush_single_body task body frame ~team:None ~nowait:true)
  | Compile.CCritical { name; nhash; body } ->
      task.Task.konts <-
        CKseq { code = body; pc = 0; frame }
        :: CKcritical_end { name; nhash }
        :: task.Task.konts;
      critical_acquire st.core task ~name ~site
  | Compile.CBarrier -> (
      match task.Task.team with
      | None -> ()
      | Some team -> barrier_arrive st.core task team ~site)
  | Compile.CWsfor { slot; vhash; lo; hi; nowait; reduction; kscope; body } ->
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
              CKreduce_combine
                {
                  op = r.Compile.r_op;
                  ophash = r.Compile.r_ophash;
                  shared;
                  private_ =
                    { Compile.l_frame = frame; l_slot = r.Compile.r_priv_slot };
                };
            ]
      in
      task.Task.konts <-
        (CKfor { slot; vhash; current = start; stop; scope = kscope; body; frame }
        :: combine_konts)
        @ CKexit_ws { team = task.Task.team; nowait } :: task.Task.konts
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
              CKenter_single;
              CKseq { code = sections.(i); pc = 0; frame };
              CKexit_single { team = None; nowait = true };
            ])
          mine
      in
      task.Task.konts <-
        konts_for_sections
        @ (CKexit_ws { team = task.Task.team; nowait } :: task.Task.konts)

let cstep st (task : ctask) =
  match task.Task.konts with
  | [] -> finish_task st.core task
  | k :: rest -> (
      match k with
      | CKseq ({ code; pc; frame } as sq) ->
          if pc >= Array.length code.Compile.stmts then task.Task.konts <- rest
          else begin
            sq.pc <- pc + 1;
            cexec_stmt st task code.Compile.stmts.(pc) frame
          end
      | CKwhile { cond; cacc; wsite; body; frame; _ } ->
          if Array.length cacc > 0 then
            crecord_accesses st task ~site:wsite ~frame cacc;
          if cond !(st.ectxs).(task.Task.id) frame <> 0 then
            task.Task.konts <-
              CKseq { code = body; pc = 0; frame } :: task.Task.konts
          else task.Task.konts <- rest
      | CKfor ({ slot; current; stop; body; frame; _ } as f) ->
          if current < stop then begin
            frame.Compile.slots.(slot) <- current;
            f.current <- current + 1;
            task.Task.konts <-
              CKseq { code = body; pc = 0; frame } :: task.Task.konts
          end
          else task.Task.konts <- rest
      | CKcall_return -> task.Task.konts <- rest
      | CKenter_single ->
          task.Task.single_depth <- task.Task.single_depth + 1;
          task.Task.konts <- rest
      | CKexit_single { team; nowait } -> (
          task.Task.single_depth <- Int.max 0 (task.Task.single_depth - 1);
          task.Task.konts <- rest;
          match team with
          | Some tm when not nowait ->
              barrier_arrive st.core task tm ~site:"<end single>"
          | Some _ | None -> ())
      | CKexit_ws { team; nowait } -> (
          task.Task.konts <- rest;
          match team with
          | Some tm when not nowait ->
              barrier_arrive st.core task tm ~site:"<end worksharing>"
          | Some _ | None -> ())
      | CKreduce_combine { op; shared; private_; _ } ->
          Compile.write_loc shared
            (apply_reduce_op op (Compile.read_loc shared)
               (Compile.read_loc private_));
          task.Task.konts <- rest
      | CKcritical_end { name; _ } ->
          task.Task.konts <- rest;
          critical_release st.core task name)

(* ------------------------------------------------------------------ *)
(* Compiled driver                                                      *)
(* ------------------------------------------------------------------ *)

type compiled = Compile.t

(** Lower a validated program once; the result is immutable and safely
    shared across domains (exploration workers). *)
let make (program : Ast.program) : compiled = Compile.lower program

(** Execute a compiled program.  Same contract and observable behaviour
    (traces, outcomes, step counts, fingerprints) as {!run_reference} on
    the source program.
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
  let degree_cap = match probe with Some p -> p.fp_depth + 1 | None -> 64 in
  (* The recorder supplies the vector-clock oracle (it needs the
     synchronisation edges for its happens-before snapshots). *)
  let race =
    match recorder with Some d -> Some (Dpor.oracle d) | None -> race
  in
  let ctasks = ref (Array.make 8 dummy_ctask) in
  let ectxs = ref (Array.make 8 dummy_ectx) in
  let ntasks = ref 0 in
  let live = ref (Array.make 8 0) in
  let nlive = ref 0 in
  let core =
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
      find = (fun id -> !ctasks.(id));
      set_cell = Compile.write_loc;
      iter_tasks =
        (fun f ->
          (* Drop finished tasks (finishing is terminal) while walking. *)
          let tasks = !ctasks and ids = !live in
          let kept = ref 0 in
          for i = 0 to !nlive - 1 do
            let t = tasks.(ids.(i)) in
            match t.Task.status with
            | Task.Finished -> ()
            | Task.Runnable | Task.Blocked _ ->
                ids.(!kept) <- ids.(i);
                incr kept;
                f t
          done;
          nlive := !kept);
      rq = Array.make 8 0;
      nrq = 0;
      race;
      events = (match recorder with Some d -> Some (Dpor.emit d) | None -> None);
    }
  in
  (* Online consumers (e.g. the streaming overlay checker) get the engine
     before any rank runs, so no collective arrival escapes their hook. *)
  (match on_engine with None -> () | Some f -> f core.engine);
  let fresh_fid =
    match recorder with
    | Some d -> fun () -> Dpor.fresh_fid d
    | None -> fun () -> -1
  in
  let st =
    {
      core;
      ctasks;
      ectxs;
      ntasks;
      live;
      nlive;
      fresh_fid;
    }
  in
  for rank = 0 to config.nranks - 1 do
    let frame = Compile.root_frame ~fid:(fresh_fid ()) entry.Compile.f_nslots in
    ignore
      (cspawn st ~rank ~tid:0 ~team:None
         ~konts:[ CKseq { code = entry.Compile.f_body; pc = 0; frame } ])
  done;
  let rng =
    match config.schedule with
    | `Random seed -> Some (Random.State.make [| seed |])
    | `Round_robin | `Scripted _ -> None
  in
  let script = ref (match config.schedule with `Scripted l -> l | _ -> []) in
  let cursor = ref 0 in
  (* Called with [core.nrq > 0].  Selection is the reference's: [rq]
     lists the runnable tasks in spawn order, and the scripted indexing
     keeps the [((choice mod n) + n) mod n] formula, so existing seeds and
     scripts replay identically. *)
  let pick () =
    let n = core.nrq in
    if core.stats.ndegrees < degree_cap then begin
      core.stats.degrees.(core.stats.ndegrees) <- n;
      core.stats.ndegrees <- core.stats.ndegrees + 1
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
    let id = core.rq.(idx) in
    (match (recorder, core.events) with
    | Some d, Some _ ->
        (* Open the step: runnable ids + chosen task + clock tick.  The
           recorder stops at its window; beyond it, drop the hooks so the
           tail runs at full speed. *)
        if not (Dpor.begin_step d ~task:id ~runnable:core.rq ~n) then begin
          core.events <- None;
          core.race <- None
        end
    | _ -> ());
    !(st.ctasks).(id)
  in
  let record_fp =
    match probe with
    | None -> fun () -> ()
    | Some p ->
        p.fp_recorded <- 0;
        fun () ->
          if
            core.stats.steps <= p.fp_depth && p.fp_recorded = core.stats.steps
          then begin
            p.fingerprints.(core.stats.steps) <- cstate_hash st;
            p.fp_recorded <- core.stats.steps + 1
          end
  in
  let outcome =
    try
      let rec loop () =
        if core.stats.steps >= config.max_steps then Step_limit
        else begin
          record_fp ();
          if core.nrq > 0 then begin
            let task = pick () in
            core.stats.steps <- core.stats.steps + 1;
            cstep st task;
            loop ()
          end
          else begin
            (* Nothing is runnable: every task left in [live] once the
               finished ones are dropped is blocked. *)
            core.iter_tasks ignore;
            let tasks = !(st.ctasks) and live = !(st.live) in
            if !(st.nlive) = 0 then Finished
            else
              Deadlock
                (List.init !(st.nlive) (fun i ->
                     Task.describe tasks.(live.(i))))
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
  if outcome = Finished then collect_leaks core;
  {
    outcome;
    stats = core.stats;
    engine = core.engine;
    lifecycle = List.rev core.lifecycle;
  }

(** Execute [program] (already validated) with the compiled core:
    [make] + {!run_compiled}.  [probe], when given, turns on the
    exploration instrumentation: state fingerprints for the first
    [probe_depth] steps land in the probe's preallocated buffer, and the
    degree record is capped at the same depth.
    @raise Invalid_argument if the entry function is missing or takes
    parameters. *)
let run ?config ?probe ?race ?recorder ?on_engine (program : Ast.program) =
  run_compiled ?config ?probe ?race ?recorder ?on_engine (make program)

(** Trace of [print] events in execution order. *)
let trace (result : result) = List.rev result.stats.trace

let is_finished result = result.outcome = Finished

let is_clean_abort result =
  match result.outcome with Aborted _ -> true | _ -> false

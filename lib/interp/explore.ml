(** Bounded schedule-space exploration (stateless model checking, lite).

    Random seeds can miss interleaving-dependent bugs; this module
    {e systematically} enumerates the scheduler's choices at the first
    [branch_depth] steps (the tail of each execution continues
    deterministically round-robin) and classifies every outcome.  For the
    small reproducer programs of this repository, the racing schedules of
    phase-2 bugs are found deterministically instead of "for some seed".

    The engine replays the program from scratch for every prefix
    (executions are cheap and the simulator is deterministic), but prunes
    with state fingerprints: when two prefixes of the same length reach
    the same {!Sim} state fingerprint, the second becomes a {e clone} of
    the first — its subtree is never replayed, and its outcome counts are
    credited from the original's subtree after exploration.  Since equal
    states have isomorphic futures, the per-class counts and the set of
    reachable classes match the unpruned enumeration exactly (modulo
    fingerprint collisions, see docs/PERFORMANCE.md).

    Replays of one breadth-first wave run on OCaml 5 domains; all
    bookkeeping (memo decisions, witness selection, child enumeration)
    happens on the coordinator in frontier order, so the summary is
    byte-identical whatever [jobs] is. *)

type dpor_stats = {
  representatives : int;
      (** Distinct Mazurkiewicz-trace representatives executed
          ([replays - fp_hits]). *)
  backtrack_points : int;  (** Backtrack jobs scheduled at racing pairs. *)
  sleep_skips : int;  (** Candidates suppressed by sleep sets. *)
  fp_hits : int;  (** Replays that converged to an already-seen state. *)
}

type summary = {
  finished : int;
  aborted : int;
  faulted : int;
  deadlocked : int;
  step_limited : int;
  runs : int;  (** Schedules represented (including pruned subtrees). *)
  replays : int;  (** Simulator executions actually performed. *)
  pruned : int;  (** [runs - replays]: runs represented without a replay
                     (fingerprint-credited subtrees in BFS mode,
                     sleep-set suppressions in DPOR mode).  In every
                     mode [runs = replays + pruned]. *)
  witnesses : (string * int list) list;
      (** First script observed for each class name. *)
  dpor : dpor_stats option;
      (** Partial-order-reduction accounting ({!outcomes_dpor} only). *)
}

let class_name (o : Sim.outcome) =
  match o with
  | Sim.Finished -> "finished"
  | Sim.Aborted _ -> "aborted"
  | Sim.Fault _ -> "fault"
  | Sim.Deadlock _ -> "deadlock"
  | Sim.Step_limit -> "step-limit"

(* ------------------------------------------------------------------ *)
(* Outcome classes as fixed slots                                      *)
(* ------------------------------------------------------------------ *)

let nclasses = 5

let class_index (o : Sim.outcome) =
  match o with
  | Sim.Finished -> 0
  | Sim.Aborted _ -> 1
  | Sim.Fault _ -> 2
  | Sim.Deadlock _ -> 3
  | Sim.Step_limit -> 4

let class_names = [| "finished"; "aborted"; "fault"; "deadlock"; "step-limit" |]

(* ------------------------------------------------------------------ *)
(* Prefix tree                                                         *)
(* ------------------------------------------------------------------ *)

(** One prefix, stored as a parent pointer plus the last choice instead
    of a materialised list, so enqueueing a child is O(1) rather than the
    former quadratic [prefix @ [c]]. *)
type node = {
  id : int;  (** Creation order; indexes the count vectors. *)
  parent : node option;
  choice : int;  (** Script element at step [depth - 1] (root: unused). *)
  depth : int;
  mutable cls : int;  (** Outcome class, [-1] until replayed. *)
  mutable original : node option;
      (** [Some o] when this node is a fingerprint clone of [o]: same
          depth, same state, subtree not expanded. *)
  mutable children : node list;  (** In choice order (1, 2, ...). *)
}

let script_of node =
  let rec up acc n =
    match n.parent with None -> acc | Some p -> up (n.choice :: acc) p
  in
  up [] node

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)
(* ------------------------------------------------------------------ *)

(** What the coordinator needs from one replay: the outcome class, the
    state fingerprint where the prefix ended (absent when the run
    terminated inside the prefix — such a node is a leaf), and the
    branching degree at the first unscripted step. *)
type replay_info = { r_cls : int; r_fp : int option; r_degree : int }

let replay_node ~probe ~(config : Sim.config) cp node =
  let config =
    (* Exploration never reads the print trace; recording it would
       allocate on every run. *)
    {
      config with
      Sim.schedule = `Scripted (script_of node);
      Sim.record_trace = false;
    }
  in
  let result = Sim.run_compiled ~config ~probe cp in
  let stats = result.Sim.stats in
  let r_fp =
    if Sim.probe_recorded probe > node.depth then
      Some (Sim.probe_fingerprint probe node.depth)
    else None
  in
  let r_degree =
    if stats.Sim.ndegrees > node.depth then stats.Sim.degrees.(node.depth)
    else 0
  in
  { r_cls = class_index result.Sim.outcome; r_fp; r_degree }

(** Run [f probes.(w) inputs.(i)] for [i < to_run] into [outputs],
    fanning out on domains (one resource from [probes] per worker).
    Workers only execute; they never touch shared mutable exploration
    state, so the handout order (an atomic counter, as in
    [Driver.analyze]) does not affect the result.  The first failure in
    input order is re-raised with its backtrace. *)
let run_wave ~probes ~f (inputs : 'a array) (outputs : 'b option array)
    to_run =
  let jobs = Array.length probes in
  let errors = Array.make (max to_run 1) None in
  let next = Atomic.make 0 in
  let worker probe =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < to_run then begin
        (try outputs.(i) <- Some (f probe inputs.(i))
         with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        go ()
      end
    in
    go ()
  in
  if jobs <= 1 || to_run <= 1 then worker probes.(0)
  else begin
    let helpers =
      Array.init
        (min (jobs - 1) (to_run - 1))
        (fun k -> Domain.spawn (fun () -> worker probes.(k + 1)))
    in
    worker probes.(0);
    Array.iter Domain.join helpers
  end;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
    errors

let replay_wave ~probes ~config cp (frontier : node array) infos to_replay =
  run_wave ~probes
    ~f:(fun probe node -> replay_node ~probe ~config cp node)
    frontier infos to_replay

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

(** [outcomes ?branch_depth ?budget ?jobs ~config program] explores the
    prefix tree breadth-first, replaying at most [budget] schedules
    (pruned subtrees are credited, not replayed, so [runs] may exceed
    [budget]) and branching over the first [branch_depth] choices.
    [config.schedule] is ignored (every run is scripted).  The program is
    lowered once with [Sim.make]; every replay — on every worker domain —
    executes the shared compiled form. *)
let outcomes ?(branch_depth = 8) ?(budget = 2000) ?(jobs = 1)
    ~(config : Sim.config) program =
  if branch_depth < 0 then
    invalid_arg "Explore.outcomes: branch_depth must be >= 0";
  if budget < 0 then invalid_arg "Explore.outcomes: budget must be >= 0";
  if jobs < 1 then invalid_arg "Explore.outcomes: jobs must be >= 1";
  (* Compile once, before the worker domains exist: the compiled form is
     immutable and Domain.spawn gives the happens-before edge, so sharing
     it is race-free. *)
  let cp = Sim.make program in
  (* One reusable probe per worker: the fingerprint buffer is allocated
     once and amortised over every replay the worker performs. *)
  let probes = Array.init jobs (fun _ -> Sim.make_probe ~depth:branch_depth) in
  let next_id = ref 0 in
  let mk ~parent ~choice ~depth =
    let n =
      { id = !next_id; parent; choice; depth; cls = -1; original = None;
        children = [] }
    in
    incr next_id;
    n
  in
  let root = mk ~parent:None ~choice:0 ~depth:0 in
  (* (depth, fingerprint) -> first node that reached that state. *)
  let memo : (int * int, node) Hashtbl.t = Hashtbl.create 256 in
  (* Fixed slot per outcome class instead of an assoc-list scan. *)
  let wit_scripts = Array.make nclasses None in
  let wit_order = ref [] in
  let replays = ref 0 in
  let budget_left = ref budget in
  let waves = ref [] in  (* processed (frontier, infos), deepest first *)
  let frontier = ref [| root |] in
  while Array.length !frontier > 0 do
    let fr = !frontier in
    let to_replay = min (Array.length fr) !budget_left in
    budget_left := !budget_left - to_replay;
    let infos = Array.make (Array.length fr) None in
    if to_replay > 0 then
      replay_wave ~probes ~config cp fr infos to_replay;
    (* Coordinator: everything below is sequential and in frontier
       order, so memo decisions, witnesses and child order are
       independent of how workers interleaved. *)
    let next_wave = ref [] in
    Array.iteri
      (fun i node ->
        match infos.(i) with
        | None -> ()  (* truncated by the budget *)
        | Some info ->
            incr replays;
            node.cls <- info.r_cls;
            if wit_scripts.(info.r_cls) = None then begin
              wit_scripts.(info.r_cls) <- Some (script_of node);
              wit_order := info.r_cls :: !wit_order
            end;
            (match info.r_fp with
            | None -> ()  (* run ended inside the prefix: leaf *)
            | Some fp -> (
                let key = (node.depth, fp) in
                match Hashtbl.find_opt memo key with
                | Some orig -> node.original <- Some orig
                | None ->
                    Hashtbl.add memo key node;
                    if node.depth < branch_depth && info.r_degree > 1 then begin
                      (* Choice 0 is the deterministic extension this
                         replay just executed; enumerate alternatives. *)
                      let kids = ref [] in
                      for c = info.r_degree - 1 downto 1 do
                        kids :=
                          mk ~parent:(Some node) ~choice:c
                            ~depth:(node.depth + 1)
                          :: !kids
                      done;
                      node.children <- !kids;
                      next_wave := !kids :: !next_wave
                    end)))
      fr;
    waves := (fr, infos) :: !waves;
    frontier := Array.of_list (List.concat (List.rev !next_wave))
  done;
  (* Credit counts bottom-up.  [!waves] is deepest wave first, and all
     nodes of one depth live in one wave, so: children (next wave) are
     done before their parent, and a clone's original (same wave,
     earlier in frontier order) is done before the clone. *)
  let vec = Array.make (!next_id * nclasses) 0 in
  List.iter
    (fun (fr, infos) ->
      Array.iteri
        (fun i node ->
          let base = node.id * nclasses in
          match infos.(i) with
          | None -> ()  (* truncated: contributes nothing *)
          | Some _ -> (
              match node.original with
              | Some orig ->
                  Array.blit vec (orig.id * nclasses) vec base nclasses
              | None ->
                  vec.(base + node.cls) <- 1;
                  List.iter
                    (fun child ->
                      let cb = child.id * nclasses in
                      for k = 0 to nclasses - 1 do
                        vec.(base + k) <- vec.(base + k) + vec.(cb + k)
                      done)
                    node.children))
        fr)
    !waves;
  let total k = vec.((root.id * nclasses) + k) in
  let runs = total 0 + total 1 + total 2 + total 3 + total 4 in
  {
    finished = total 0;
    aborted = total 1;
    faulted = total 2;
    deadlocked = total 3;
    step_limited = total 4;
    runs;
    replays = !replays;
    pruned = runs - !replays;
    witnesses =
      List.rev_map
        (fun c -> (class_names.(c), Option.get wit_scripts.(c)))
        !wit_order;
    dpor = None;
  }

(* ------------------------------------------------------------------ *)
(* Reference engine                                                    *)
(* ------------------------------------------------------------------ *)

(** The original depth-first, unpruned, sequential enumeration, kept as
    the oracle that the tests compare [outcomes]' fingerprint pruning and
    [outcomes_dpor]'s coverage against.  One replay per represented run:
    [replays = runs], [pruned = 0]. *)
let outcomes_reference ?(branch_depth = 8) ?(budget = 2000)
    ~(config : Sim.config) program =
  let cp = Sim.make program in
  let summary =
    ref
      {
        finished = 0;
        aborted = 0;
        faulted = 0;
        deadlocked = 0;
        step_limited = 0;
        runs = 0;
        replays = 0;
        pruned = 0;
        witnesses = [];
        dpor = None;
      }
  in
  let record script (o : Sim.outcome) =
    let s = !summary in
    let s =
      match o with
      | Sim.Finished -> { s with finished = s.finished + 1 }
      | Sim.Aborted _ -> { s with aborted = s.aborted + 1 }
      | Sim.Fault _ -> { s with faulted = s.faulted + 1 }
      | Sim.Deadlock _ -> { s with deadlocked = s.deadlocked + 1 }
      | Sim.Step_limit -> { s with step_limited = s.step_limited + 1 }
    in
    let name = class_name o in
    let s =
      if List.mem_assoc name s.witnesses then s
      else { s with witnesses = (name, script) :: s.witnesses }
    in
    summary := { s with runs = s.runs + 1; replays = s.replays + 1 }
  in
  let budget_left = ref budget in
  let rec explore prefix =
    if !budget_left > 0 then begin
      decr budget_left;
      let cfg = { config with Sim.schedule = `Scripted prefix } in
      let result = Sim.run_compiled ~config:cfg cp in
      record prefix result.Sim.outcome;
      let depth = List.length prefix in
      if depth < branch_depth && depth < result.Sim.stats.Sim.ndegrees then begin
        (* Branching degree at the first unscripted step of this run. *)
        let d = result.Sim.stats.Sim.degrees.(depth) in
        if d > 1 then
          for c = 1 to d - 1 do
            explore (prefix @ [ c ])
          done
      end
    end
  in
  explore [];
  { !summary with witnesses = List.rev !summary.witnesses }

(* ------------------------------------------------------------------ *)
(* DPOR engine                                                         *)
(* ------------------------------------------------------------------ *)

(* Dynamic partial-order reduction in the source-set/sleep-set style
   (Flanagan–Godefroid backtrack sets plus sleep sets): instead of
   branching on every scheduler choice, execute one representative
   schedule per Mazurkiewicz trace and backtrack only where two recorded
   steps were dependent ({!Dpor.steps_conflict}) yet unordered by
   happens-before ({!Dpor.ordered}).  See docs/PERFORMANCE.md, "Dynamic
   partial-order reduction". *)

(** One scheduled exploration: replay the index script [j_script]
    (length [j_div]), then continue round-robin.  [j_sleep] is the sleep
    set in force at the divergence node (depth [j_div - 1]): steps known
    to lead into already-covered traces, carried as (task, footprint)
    pairs so executed steps can wake them on conflict. *)
type djob = {
  j_script : int list;
  j_div : int;
  j_sleep : (int * Dpor.eobj array) list;
}

(** A node of the schedule trie (one reached prefix), keyed by the task
    executed at each step — bijective with index scripts, since the
    runnable set of a prefix is deterministic. *)
type dnode = {
  mutable d_explored : (int * Dpor.eobj array) list;
      (** Tasks stepped from here by some executed run, with the
          footprint of that step. *)
  mutable d_scheduled : int list;  (** Tasks with a pending job. *)
  mutable d_slept : int list;  (** Tasks suppressed here by sleep. *)
  mutable d_sleep0 : (int * Dpor.eobj array) list;
      (** Sleep set threaded to this node when first created. *)
  d_children : (int, dnode) Hashtbl.t;
}

(** What the coordinator needs from one DPOR replay. *)
type drun = {
  dr_cls : int;
  dr_fps : int array;  (** State fingerprints, one per recorded depth. *)
  dr_steps : Dpor.step_view array;
}

let index_in (a : int array) x =
  let rec go i = if a.(i) = x then i else go (i + 1) in
  go 0

let outcomes_dpor ?(branch_depth = 8) ?(budget = 2000) ?(jobs = 1)
    ~(config : Sim.config) program =
  if branch_depth < 0 then
    invalid_arg "Explore.outcomes_dpor: branch_depth must be >= 0";
  if budget < 0 then invalid_arg "Explore.outcomes_dpor: budget must be >= 0";
  if jobs < 1 then invalid_arg "Explore.outcomes_dpor: jobs must be >= 1";
  let cp = Sim.make program in
  (* Recording continues well past [branch_depth]: a racing pair's
     second access often falls beyond the last branchable step, and the
     fatal-step rule (below) must see the aborting step wherever it
     lands.  Racing-pair backtracks still diverge only below
     [branch_depth] — the window the reference/BFS engines enumerate —
     but fatal-step backtracks may diverge anywhere in the recording
     window: their fan-out is one node per delay, not one per racing
     pair, so they deepen coverage without the combinatorial blow-up. *)
  let window = branch_depth + 32 in
  let bt_depth = window - 1 in
  (* Probes span the whole recording window, not just [branch_depth]:
     fatal-step jobs diverge deep, and without a fingerprint at their
     divergence depth every commuting order of delays would be
     re-analyzed instead of collapsing in the memo table. *)
  let probes = Array.init jobs (fun _ -> Sim.make_probe ~depth:window) in
  let replay probe (job : djob) =
    let config =
      {
        config with
        Sim.schedule = `Scripted job.j_script;
        Sim.record_trace = false;
      }
    in
    let recorder = Dpor.make ~window in
    let result = Sim.run_compiled ~config ~probe ~recorder cp in
    {
      dr_cls = class_index result.Sim.outcome;
      dr_fps =
        Array.init (Sim.probe_recorded probe) (Sim.probe_fingerprint probe);
      dr_steps = Dpor.views recorder;
    }
  in
  let mk_node sleep0 =
    {
      d_explored = [];
      d_scheduled = [];
      d_slept = [];
      d_sleep0 = sleep0;
      d_children = Hashtbl.create 4;
    }
  in
  let root = mk_node [] in
  (* (depth, fingerprint) memo over {e every} recorded depth: past its
     script a replay continues deterministically, so two runs in the
     same state at the same depth have identical futures.  The first
     visitor of a state owns the analysis of everything after it; a
     later run converging there skips registrations at or beyond the
     convergence depth.  Without this, sleep sets alone cannot stop
     round-robin tails from re-executing already-covered traces (the
     classic stateless-DPOR duplication), and the backtrack queue
     cascades. *)
  let memo : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let cls_counts = Array.make nclasses 0 in
  let wit_scripts = Array.make nclasses None in
  let wit_order = ref [] in
  let replays = ref 0 in
  let sleep_skips = ref 0 in
  let backtrack_points = ref 0 in
  let fp_hits = ref 0 in
  let budget_left = ref budget in
  let pending = Queue.create () in
  Queue.add { j_script = []; j_div = 0; j_sleep = [] } pending;
  let sleeping sleep t = List.exists (fun (u, _) -> u = t) sleep in
  let step_filter_sleep sleep (s : Dpor.step_view) =
    List.filter
      (fun (u, ev) ->
        u <> s.Dpor.v_task && not (Dpor.steps_conflict ev s.Dpor.v_events))
      sleep
  in
  let analyze (job : djob) (run : drun) =
    incr replays;
    cls_counts.(run.dr_cls) <- cls_counts.(run.dr_cls) + 1;
    if wit_scripts.(run.dr_cls) = None then begin
      wit_scripts.(run.dr_cls) <- Some job.j_script;
      wit_order := run.dr_cls :: !wit_order
    end;
    (* First depth >= j_div at which this run converged to a state some
       earlier run already owned (max_int: none — this run owns every
       state it reached). *)
    let clone_from = ref max_int in
    (try
       for k = job.j_div to Array.length run.dr_fps - 1 do
         let key = (k, run.dr_fps.(k)) in
         if Hashtbl.mem memo key then begin
           clone_from := k;
           raise Exit
         end
         else Hashtbl.add memo key ()
       done
     with Exit -> ());
    let clone_from = !clone_from in
    if clone_from = job.j_div then incr fp_hits;
    let steps = run.dr_steps in
    let nsteps = Array.length steps in
    let kmax = min nsteps bt_depth in
    (* Walk the trie along this run's prefix, threading the sleep set
       forward (an executed step wakes entries it conflicts with) and
       marking each step as explored from its node. *)
    let nodes = Array.make (max kmax 1) root in
    let sleeps = Array.make (max kmax 1) [] in
    let node = ref root in
    for k = 0 to kmax - 1 do
      nodes.(k) <- !node;
      let sl =
        if k = job.j_div - 1 then job.j_sleep
        else if k < job.j_div then !node.d_sleep0
        else if k = 0 then []
        else step_filter_sleep sleeps.(k - 1) steps.(k - 1)
      in
      sleeps.(k) <- sl;
      let t = steps.(k).Dpor.v_task in
      if not (List.mem_assoc t !node.d_explored) then
        !node.d_explored <- (t, steps.(k).Dpor.v_events) :: !node.d_explored;
      !node.d_scheduled <- List.filter (fun u -> u <> t) !node.d_scheduled;
      if k + 1 < kmax then
        node :=
          (match Hashtbl.find_opt !node.d_children t with
          | Some child -> child
          | None ->
              let child = mk_node (step_filter_sleep sl steps.(k)) in
              Hashtbl.add !node.d_children t child;
              child)
    done;
    (* Register backtrack candidates at step [i]: [targets] lists the
       racing tasks to run first instead (F-G), [None] meaning every
       runnable task (the conservative fallback). *)
    let register i targets =
      let node_i = nodes.(i) and sleep_i = sleeps.(i) in
      let runnable_i = steps.(i).Dpor.v_runnable in
      let covered q =
        List.mem_assoc q node_i.d_explored || List.mem q node_i.d_scheduled
      in
      let skip_sleeping q =
        (* Count each suppression once per node. *)
        if not (List.mem q node_i.d_slept) then begin
          node_i.d_slept <- q :: node_i.d_slept;
          incr sleep_skips
        end
      in
      let schedule q =
        let script =
          List.init i (fun k ->
              if k < job.j_div then List.nth job.j_script k
              else index_in steps.(k).Dpor.v_runnable steps.(k).Dpor.v_task)
          @ [ index_in runnable_i q ]
        in
        (* The new branch sleeps on everything already explored or
           asleep here — those orderings are covered; a conflicting
           step past the divergence wakes them. *)
        let sleep' =
          List.filter
            (fun (u, _) -> u <> q)
            (sleep_i
            @ List.filter
                (fun (u, _) -> not (sleeping sleep_i u))
                node_i.d_explored)
        in
        node_i.d_scheduled <- q :: node_i.d_scheduled;
        incr backtrack_points;
        Queue.add { j_script = script; j_div = i + 1; j_sleep = sleep' }
          pending
      in
      let consider q =
        if sleeping sleep_i q then skip_sleeping q
        else if not (covered q) then schedule q
      in
      match targets with
      | Some ts -> List.iter consider ts
      | None -> Array.iter consider runnable_i
    in
    (* Backtrack pass (Flanagan–Godefroid): for every step [j], find the
       last earlier step [i] it races with; re-explore from [i] with the
       racing task (or, if that task is not runnable there, every
       runnable task) scheduled first. *)
    for j = 1 to nsteps - 1 do
      let i = ref (-1) in
      let k = ref (j - 1) in
      while !i < 0 && !k >= 0 do
        let a = steps.(!k) and b = steps.(j) in
        if
          a.Dpor.v_task <> b.Dpor.v_task
          && Dpor.steps_conflict a.Dpor.v_events b.Dpor.v_events
          && not (Dpor.ordered steps !k j)
        then i := !k;
        decr k
      done;
      let i = !i in
      (if i >= 0 && i < branch_depth && i < clone_from then
         let tj = steps.(j).Dpor.v_task in
         let runnable_i = steps.(i).Dpor.v_runnable in
         if Array.exists (fun t -> t = tj) runnable_i then
           register i (Some [ tj ])
         else register i None)
    done;
    (* A step that terminates the run (a verification abort or a runtime
       fault raised mid-step) disables every co-enabled transition of
       every other task, so it is dependent with all of them — including
       steps that never got to execute and therefore cannot appear in
       the racing-pair scan above.  Backtrack at the fatal node, or the
       outcomes those delayed steps lead to (for example completing a
       region before the aborting re-entry) are never represented.  Only
       steps that {e conflict} with the fatal footprint can change what
       the fatal step observes (a counter exit, the other collective's
       arrival); delaying it behind an independent step merely commutes
       with it.  So target the tasks whose recorded history conflicts
       with the fatal step — typically the holder of the violated
       region, stepped forward until it releases it — and fall back to
       every runnable task only when no such task is runnable (the
       holder may itself be blocked on tasks with no conflicting history
       yet).  [nsteps - 1] is the fatal step exactly when it lies
       strictly inside the recording window (the guard: the recorder
       stopped because the run did, not because it ran out). *)
    (if run.dr_cls = 1 || run.dr_cls = 2 then
       let jf = nsteps - 1 in
       if jf >= 0 && jf < bt_depth && jf < clone_from then begin
         let fatal = steps.(jf) in
         let holders = ref [] in
         for k = 0 to jf - 1 do
           let t = steps.(k).Dpor.v_task in
           if
             t <> fatal.Dpor.v_task
             && (not (List.mem t !holders))
             && Array.exists (fun u -> u = t) fatal.Dpor.v_runnable
             && Dpor.steps_conflict steps.(k).Dpor.v_events
                  fatal.Dpor.v_events
           then holders := t :: !holders
         done;
         if !holders <> [] then register jf (Some (List.rev !holders))
         else register jf None
       end)
  in
  while (not (Queue.is_empty pending)) && !budget_left > 0 do
    let nwave = min (Queue.length pending) !budget_left in
    let batch = Array.init nwave (fun _ -> Queue.pop pending) in
    budget_left := !budget_left - nwave;
    let runs = Array.make nwave None in
    run_wave ~probes ~f:replay batch runs nwave;
    (* Coordinator: analysis is sequential in job-creation order, so
       trie updates, witnesses and new jobs are independent of how the
       workers interleaved — the summary is byte-identical whatever
       [jobs] is. *)
    Array.iteri
      (fun idx job ->
        match runs.(idx) with None -> () | Some r -> analyze job r)
      batch
  done;
  {
    finished = cls_counts.(0);
    aborted = cls_counts.(1);
    faulted = cls_counts.(2);
    deadlocked = cls_counts.(3);
    step_limited = cls_counts.(4);
    runs = !replays + !sleep_skips;
    replays = !replays;
    pruned = !sleep_skips;
    witnesses =
      List.rev_map
        (fun c -> (class_names.(c), Option.get wit_scripts.(c)))
        !wit_order;
    dpor =
      Some
        {
          representatives = !replays - !fp_hits;
          backtrack_points = !backtrack_points;
          sleep_skips = !sleep_skips;
          fp_hits = !fp_hits;
        };
  }

let pp_summary ppf s =
  Fmt.pf ppf
    "%d schedule(s) (%d replayed, %d pruned): %d finished, %d aborted, %d \
     fault, %d deadlock, %d step-limit"
    s.runs s.replays s.pruned s.finished s.aborted s.faulted s.deadlocked
    s.step_limited;
  (match s.dpor with
  | None -> ()
  | Some d ->
      Fmt.pf ppf
        "@\n\
         DPOR: %d trace representative(s), %d backtrack point(s), %d \
         sleep-set skip(s), %d fingerprint hit(s)"
        d.representatives d.backtrack_points d.sleep_skips d.fp_hits);
  List.iter
    (fun (name, script) ->
      Fmt.pf ppf "@\n  %s witness: [%a]" name
        (Fmt.list ~sep:(Fmt.any ";") Fmt.int)
        script)
    s.witnesses

let summary_to_string s = Fmt.str "%a" pp_summary s

(** Does some explored schedule reach each of the given classes? *)
let reaches s name = List.mem_assoc name s.witnesses

(** Replay a witness script. *)
let replay ~(config : Sim.config) program script =
  Sim.run ~config:{ config with Sim.schedule = `Scripted script } program

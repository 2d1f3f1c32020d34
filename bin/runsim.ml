(** [runsim] — execute a hybrid MPI+OpenMP mini-language program on the
    simulated runtime, optionally after PARCOACH instrumentation, and
    report the outcome (finished / clean verification abort / MPI fault /
    deadlock) with execution statistics. *)

open Cmdliner

let run file bench ranks threads seed round_robin max_steps instrument jobs
    inject show_trace overlay overlay_fanout level explore
    explore_mode branch_depth budget explore_jobs =
  Cli.check_at_least "ranks" ~min:1 ranks;
  Cli.check_at_least "threads" ~min:1 threads;
  Cli.check_at_least "max-steps" ~min:0 max_steps;
  Option.iter (Cli.check_at_least "jobs" ~min:1) jobs;
  Cli.check_at_least "branch-depth" ~min:0 branch_depth;
  Cli.check_at_least "budget" ~min:1 budget;
  Cli.check_at_least "explore-jobs" ~min:1 explore_jobs;
  Cli.check_at_least "overlay-fanout" ~min:2 overlay_fanout;
  let print_issue i = Fmt.epr "%s@." (Minilang.Validate.issue_to_string i) in
  let program =
    match
      Minilang.Validate.catch_syntax_error (fun () -> Cli.read_program file bench)
    with
    | Ok program -> program
    | Error issue ->
        print_issue issue;
        exit 1
  in
  let issues = Minilang.Validate.check_program program in
  List.iter print_issue issues;
  if not (Minilang.Validate.is_valid issues) then exit 1;
  let program =
    match inject with
    | None -> program
    | Some (bug, index) ->
        Fmt.pr "injecting: %s at collective #%d@."
          (Benchsuite.Injector.bug_name bug)
          index;
        Benchsuite.Injector.inject bug ~index program
  in
  let program =
    match instrument with
    | None -> program
    | Some mode ->
        let report = Parcoach.Driver.analyze ?jobs program in
        Fmt.pr "%a" Parcoach.Driver.pp_report report;
        Parcoach.Instrument.instrument report mode
  in
  let config =
    {
      Interp.Sim.nranks = ranks;
      default_nthreads = threads;
      schedule = (if round_robin then `Round_robin else `Random seed);
      max_steps;
      entry = "main";
      record_trace = true;
      thread_level = level;
    }
  in
  if explore then begin
    let summary =
      match explore_mode with
      | `Bfs ->
          Interp.Explore.outcomes ~branch_depth ~budget ~jobs:explore_jobs
            ~config program
      | `Dpor ->
          Interp.Explore.outcomes_dpor ~branch_depth ~budget
            ~jobs:explore_jobs ~config program
    in
    Fmt.pr "%a@." Interp.Explore.pp_summary summary;
    if
      summary.Interp.Explore.faulted > 0
      || summary.Interp.Explore.deadlocked > 0
      || summary.Interp.Explore.step_limited > 0
    then exit 5
    else if summary.Interp.Explore.aborted > 0 then exit 4
    else exit 0
  end;
  (* Online checking runs inline in the engine's arrival hook. *)
  let stream_checker =
    match overlay with
    | Some `Stream ->
        Some (Mustlike.Stream.create ~fanout:overlay_fanout ~nranks:ranks ())
    | Some `Posthoc | None -> None
  in
  let result =
    Interp.Sim.run ~config
      ?on_engine:
        (Option.map
           (fun t engine -> Mustlike.Stream.attach_engine t engine)
           stream_checker)
      program
  in
  Fmt.pr "outcome: %a@." Interp.Sim.pp_outcome result.Interp.Sim.outcome;
  let stats = result.Interp.Sim.stats in
  Fmt.pr
    "steps: %d | tasks: %d | work: %d | collectives: %d | CC checks: %d | \
     counter checks: %d@."
    stats.Interp.Sim.steps stats.Interp.Sim.tasks_spawned stats.Interp.Sim.work
    (Mpisim.Engine.completed_count result.Interp.Sim.engine)
    (Mpisim.Engine.cc_check_count result.Interp.Sim.engine)
    stats.Interp.Sim.counter_checks;
  (match result.Interp.Sim.lifecycle with
  | [] -> ()
  | vs ->
      Fmt.pr "request lifecycle: %d violation(s)@." (List.length vs);
      List.iter (fun v -> Fmt.pr "  %a@." Interp.Sim.pp_lifecycle v) vs);
  if show_trace then
    List.iter
      (fun (rank, tid, value) ->
        Fmt.pr "  [rank %d thread %d] print %d@." rank tid value)
      (Interp.Sim.trace result);
  (match overlay with
  | Some `Posthoc ->
      let report =
        Mustlike.Overlay.check_engine ~fanout:overlay_fanout
          result.Interp.Sim.engine
      in
      Fmt.pr "MUST-like post-mortem trace check:@.%s@."
        (Mustlike.Overlay.report_to_string report)
  | Some `Stream | None -> ());
  Option.iter
    (fun t ->
      let report, stats = Mustlike.Stream.result t in
      Fmt.pr "MUST-like streaming trace check:@.%s@."
        (Mustlike.Overlay.report_to_string report);
      Fmt.pr "streaming: %d event(s) checked, %d drained, max in-flight %d@."
        stats.Mustlike.Stream.events stats.Mustlike.Stream.drained
        stats.Mustlike.Stream.max_in_flight)
    stream_checker;
  match result.Interp.Sim.outcome with
  | Interp.Sim.Finished -> ()
  | Interp.Sim.Aborted _ -> exit 4
  | Interp.Sim.Fault _ | Interp.Sim.Deadlock _ | Interp.Sim.Step_limit -> exit 5

let file =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Source file.")

let bench =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"NAME" ~doc:"Run a generated benchmark.")

let ranks =
  Arg.(value & opt int 4 & info [ "ranks"; "n" ] ~docv:"N" ~doc:"MPI processes.")

let threads =
  Arg.(
    value & opt int 4
    & info [ "threads"; "t" ] ~docv:"N" ~doc:"Default OpenMP team size.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

let round_robin =
  Arg.(
    value & flag
    & info [ "round-robin" ] ~doc:"Deterministic round-robin scheduling.")

let max_steps =
  Arg.(
    value & opt int 2_000_000
    & info [ "max-steps" ] ~docv:"N" ~doc:"Step budget before giving up.")

let instrument =
  let cv =
    Arg.conv
      ( (fun s ->
          match s with
          | "selective" -> Ok Parcoach.Instrument.Selective
          | "exhaustive" -> Ok Parcoach.Instrument.Exhaustive
          | _ -> Error (`Msg "expected 'selective' or 'exhaustive'")),
        fun ppf m ->
          Fmt.string ppf
            (match m with
            | Parcoach.Instrument.Selective -> "selective"
            | Parcoach.Instrument.Exhaustive -> "exhaustive") )
  in
  Arg.(
    value
    & opt (some cv) None
    & info [ "instrument" ] ~docv:"MODE"
        ~doc:"Analyse and instrument before running ('selective'/'exhaustive').")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "With $(b,--instrument): analyse up to $(docv) functions in \
           parallel (OCaml domains). Defaults to the available cores.")

let inject =
  let bug_conv =
    Arg.conv
      ( (fun s ->
          match Benchsuite.Injector.of_short_name s with
          | Some bug -> Ok bug
          | None -> Error (`Msg (Printf.sprintf "unknown bug '%s'" s))),
        fun ppf b -> Fmt.string ppf (Benchsuite.Injector.short_name b) )
  in
  Arg.(
    value
    & opt (some (pair ~sep:(Char.chr 64) bug_conv int)) None
    & info [ "inject" ] ~docv:"BUG@INDEX"
        ~doc:
          "Inject a bug before running, e.g. rank-divergence@0 \
           (bugs: rank-divergence, into-parallel, into-sections, \
           operator-mismatch, extra-collective).")

let show_trace =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the trace of print() events.")

let overlay =
  Arg.(
    value
    & opt (some (enum [ ("stream", `Stream); ("posthoc", `Posthoc) ])) None
    & info [ "overlay" ] ~docv:"MODE"
        ~doc:
          "Check collective consistency with the MUST-style overlay: \
           $(i,stream) checks each round inline as the ranks' collectives \
           arrive, holding only the events of rounds still waiting for a \
           rank (no full-trace retention); $(i,posthoc) checks the recorded \
           traces after the run.")

let overlay_fanout =
  Arg.(
    value & opt int 2
    & info [ "overlay-fanout" ] ~docv:"N"
        ~doc:
          "Fan-out of the overlay tree used by $(b,--overlay) (>= 2; the \
           rank count gives a centralized Marmot-like checker).")

let level =
  let cv =
    Arg.conv
      ( (fun s ->
          match Mpisim.Thread_level.of_string s with
          | Some l -> Ok l
          | None -> Error (`Msg (Printf.sprintf "unknown thread level '%s'" s))),
        fun ppf l -> Fmt.string ppf (Mpisim.Thread_level.to_string l) )
  in
  Arg.(
    value
    & opt cv Mpisim.Thread_level.Multiple
    & info [ "level" ] ~docv:"LEVEL"
        ~doc:
          "MPI thread level the simulated library is initialised with \
           (single, funneled, serialized, multiple); collectives issued \
           from contexts requiring more are rejected.")

let explore =
  Arg.(
    value & flag
    & info [ "explore" ]
        ~doc:
          "Instead of one run, systematically explore scheduler choices \
           (with state-fingerprint pruning) and classify every outcome.")

let explore_mode =
  Arg.(
    value
    & opt (enum [ ("bfs", `Bfs); ("dpor", `Dpor) ]) `Bfs
    & info [ "explore-mode" ] ~docv:"MODE"
        ~doc:
          "With $(b,--explore): exploration engine. 'bfs' (default) \
           enumerates schedule prefixes breadth-first with \
           state-fingerprint pruning; 'dpor' explores one representative \
           schedule per Mazurkiewicz trace with dynamic partial-order \
           reduction.")

let branch_depth =
  Arg.(
    value & opt int 8
    & info [ "branch-depth" ] ~docv:"N"
        ~doc:"With $(b,--explore): branch over the first $(docv) steps.")

let budget =
  Arg.(
    value & opt int 2000
    & info [ "budget" ] ~docv:"N"
        ~doc:
          "With $(b,--explore): replay at most $(docv) schedules (pruned \
           subtrees are credited without replaying).")

let explore_jobs =
  Arg.(
    value & opt int 1
    & info [ "explore-jobs" ] ~docv:"N"
        ~doc:
          "With $(b,--explore): replay each exploration wave on up to \
           $(docv) OCaml domains; the summary is identical whatever \
           $(docv) is.")

let cmd =
  let doc = "run hybrid MPI+OpenMP programs on the simulated runtime" in
  Cmd.v
    (Cmd.info "runsim" ~version:"0.5.0" ~doc)
    Term.(
      const run $ file $ bench $ ranks $ threads $ seed $ round_robin
      $ max_steps $ instrument $ jobs $ inject $ show_trace $ overlay
      $ overlay_fanout $ level $ explore $ explore_mode $ branch_depth
      $ budget $ explore_jobs)

let () = exit (Cmd.eval cmd)

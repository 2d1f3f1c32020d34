(* simulate: one op is one [runsim] invocation run in process.

   A run op is [runsim --instrument selective --jobs 1 --overlay posthoc]
   on 4 ranks x 3 threads with a seeded scheduler: parse, validate,
   analyze, instrument, lower ([Sim.make]), run, and check the collective
   traces with the MUST-like overlay.  An explore op is [runsim
   --explore] (BFS or DPOR, jobs 1) on a reproducer, at the depth and
   budget the explorer's tests use.

   The streamed overlay runs outside the timed region, on every run
   input, where its report must equal the post-hoc one.  Its coordinator
   domain competes with the simulator for the machine's second core, and
   how fast two busy cores run here depends on the host's load (the
   second one at a third of the first's speed at times), which made
   timed streamed runs drift by a third between two sets of runs. *)

type mode = Run | Explore of [ `Bfs | `Dpor ]

type input = {
  key : string;
  source : string;
  mode : mode;
  answers : (string * string) list;
}

(* Branch depth and replay budget of each exploration, as the explorer's
   tests run it. *)
let explore_params = function
  | "bfs:racy-singles" -> (10, 3000)
  | "bfs:deadlock-barrier" -> (6, 300)
  | "dpor:racy-ring" -> (16, 2000)
  | _ -> (8, 200_000)

let run_config seed =
  {
    Interp.Sim.nranks = 4;
    default_nthreads = 3;
    schedule = `Random seed;
    max_steps = 2_000_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* The explorer tests' configuration. *)
let explore_config =
  {
    Interp.Sim.nranks = 2;
    default_nthreads = 2;
    schedule = `Round_robin;
    max_steps = 200_000;
    entry = "main";
    record_trace = false;
    thread_level = Mpisim.Thread_level.Multiple;
  }

let fanout = 2

(* The checks a known answer can make on the classes an op reached. *)
let check key classes answers =
  List.filter_map
    (fun (check, arg) ->
      let ok =
        match check with
        | "outcome" -> classes = [ arg ]
        | "reaches" -> List.mem arg classes
        | "reaches-any" ->
            List.exists (fun c -> List.mem c classes) (String.split_on_char '|' arg)
        | _ -> Fmt.failwith "simulate: unknown check %S" check
      in
      if ok then None
      else
        Some
          (Printf.sprintf "%s: %s %s (got %s)" key check arg (String.concat "," classes)))
    answers

(* The interprocedural extension is on: without it, a divergence whose
   next collective sits in an unflagged callee reaches the MPI library
   before any CC check (an extra barrier before a call, as in HERA), and
   selective CC promises the clean abort only with the extension. *)
let options =
  { Parcoach.Driver.default_options with Parcoach.Driver.interprocedural = true }

let instrumented (ctx : Common.ctx) program =
  let span name f = Trace.span ctx.Common.tr name f in
  let tm = if ctx.Common.tr.Trace.enabled then Some (Parcoach.Timings.create ()) else None in
  let report =
    span "parcoach.analyze" (fun () ->
        Parcoach.Driver.analyze ~options ~jobs:1 ?timings:tm program)
  in
  Option.iter (fun tm -> Trace.add_timings ctx.Common.tr tm Wl_compile.driver_phase) tm;
  span "parcoach.instrument" (fun () ->
      Parcoach.Instrument.instrument report Parcoach.Instrument.Selective)

let record_run tr (r : Interp.Sim.result) =
  let st = r.Interp.Sim.stats in
  Trace.count tr "interp.sim_steps" st.Interp.Sim.steps;
  Trace.count tr "interp.tasks_spawned" st.Interp.Sim.tasks_spawned;
  Trace.count tr "mpisim.collectives" (Mpisim.Engine.completed_count r.Interp.Sim.engine);
  Trace.count tr "mpisim.cc_checks" (Mpisim.Engine.cc_check_count r.Interp.Sim.engine)

(* One instrumented run with the [overlay] check; returns the run and
   the overlay report. *)
let checked_run (ctx : Common.ctx) ~seed ~overlay program =
  let tr = ctx.Common.tr in
  let span name f = Trace.span tr name f in
  let inst = instrumented ctx program in
  let compiled = span "interp.lower" (fun () -> Interp.Sim.make inst) in
  let config = run_config seed in
  match overlay with
  | `Stream ->
      let checker = Mustlike.Stream.create ~fanout ~nranks:config.Interp.Sim.nranks () in
      let r =
        span "interp.sim" (fun () ->
            Interp.Sim.run_compiled ~config
              ~on_engine:(Mustlike.Stream.attach_engine checker)
              compiled)
      in
      let report, st =
        span "mustlike.stream_wait" (fun () -> Mustlike.Stream.result checker)
      in
      Trace.count tr "mustlike.stream_events" st.Mustlike.Stream.events;
      Trace.peak tr "mustlike.stream_max_in_flight" st.Mustlike.Stream.max_in_flight;
      record_run tr r;
      (r, report)
  | `Posthoc ->
      let r = span "interp.sim" (fun () -> Interp.Sim.run_compiled ~config compiled) in
      let report =
        span "mustlike.overlay" (fun () ->
            Mustlike.Overlay.check_engine ~fanout r.Interp.Sim.engine)
      in
      record_run tr r;
      (r, report)

let explore (ctx : Common.ctx) ~key ~engine program =
  let tr = ctx.Common.tr in
  let branch_depth, budget = explore_params key in
  match engine with
  | `Dpor ->
      let s =
        Trace.span tr "interp.dpor" (fun () ->
            Interp.Explore.outcomes_dpor ~branch_depth ~budget ~jobs:1
              ~config:explore_config program)
      in
      Trace.count tr "interp.dpor_replays" s.Interp.Explore.replays;
      Option.iter
        (fun d -> Trace.count tr "interp.dpor_representatives" d.Interp.Explore.representatives)
        s.Interp.Explore.dpor;
      s
  | `Bfs ->
      let s =
        Trace.span tr "interp.explore" (fun () ->
            Interp.Explore.outcomes ~branch_depth ~budget ~jobs:1
              ~config:explore_config program)
      in
      Trace.count tr "interp.explore_replays" s.Interp.Explore.replays;
      Trace.count tr "interp.explore_runs" s.Interp.Explore.runs;
      s

let op (ctx : Common.ctx) ~seed input =
  let span name f = Trace.span ctx.Common.tr name f in
  let program =
    span "minilang.parse" (fun () ->
        Minilang.Parser.parse_string ~file:input.key input.source)
  in
  let issues =
    span "minilang.validate" (fun () -> Minilang.Validate.check_program program)
  in
  if not (Minilang.Validate.is_valid issues) then [ input.key ^ ": invalid" ]
  else
    let classes =
      match input.mode with
      | Run ->
          let r, _ = checked_run ctx ~seed ~overlay:`Posthoc program in
          [ Interp.Explore.class_name r.Interp.Sim.outcome ]
      | Explore engine ->
          let s = explore ctx ~key:input.key ~engine program in
          List.sort compare (List.map fst s.Interp.Explore.witnesses)
    in
    Common.verdict ctx "%s %s" input.key (String.concat "," classes);
    check input.key classes input.answers

let mode_name = function
  | Run -> "run"
  | Explore `Bfs -> "bfs"
  | Explore `Dpor -> "dpor"

let setup (ctx : Common.ctx) =
  let answers = Answers.load "simulate.txt" in
  let runs answer_key key source =
    [ { key = "run:" ^ key; source; mode = Run; answers = Answers.require answers answer_key } ]
  in
  let small =
    List.map
      (fun (e : Benchsuite.Catalog.entry) ->
        (e.Benchsuite.Catalog.name, e.Benchsuite.Catalog.generate_small ()))
      Benchsuite.Catalog.all
  in
  let catalog =
    List.concat_map
      (fun (name, p) -> runs ("catalog:" ^ name) ("catalog:" ^ name) (Common.source_of p))
      small
  in
  let examples =
    List.concat_map
      (fun (f, source) ->
        let key = "example:" ^ f in
        if Answers.find answers key = [] then [] else runs key key source)
      (Common.examples ())
  in
  let mutants, dropped =
    Common.mutants (Common.rng ctx 0x51)
      ~bugs:[ Benchsuite.Injector.Rank_divergence; Benchsuite.Injector.Extra_collective ]
      (List.filter (fun (_, p) -> not (Common.has_p2p p)) small)
  in
  let mutants =
    List.concat_map
      (fun (key, bug, p) ->
        runs ("bug:" ^ Benchsuite.Injector.short_name bug) ("mutant:" ^ key)
          (Common.source_of p))
      mutants
  in
  let explorations =
    List.concat_map
      (fun (e : Benchsuite.Reproducers.entry) ->
        List.filter_map
          (fun mode ->
            let key = mode_name mode ^ ":" ^ e.Benchsuite.Reproducers.name in
            match Answers.find answers key with
            | [] -> None
            | answers -> Some { key; source = e.Benchsuite.Reproducers.source; mode; answers })
          [ Explore `Bfs; Explore `Dpor ])
      Benchsuite.Reproducers.all
  in
  (Array.of_list (catalog @ examples @ mutants @ explorations), List.length mutants, dropped)

(* Outside the timed region: the streamed and post-hoc overlay reports
   of the same run are byte-equal.  In a traced run the streamed runs are
   traced, which is where the [mustlike.stream_*] metrics come from (their
   analysis, lowering and simulation spans add to those layers too). *)
let overlay_agreement (ctx : Common.ctx) inputs =
  let tr = ctx.Common.tr in
  Array.to_list inputs
  |> List.filter_map (fun input ->
         match input.mode with
         | Run ->
             let program = Minilang.Parser.parse_string ~file:input.key input.source in
             let report overlay =
               Mustlike.Overlay.report_to_string
                 (snd (checked_run ctx ~seed:ctx.Common.seed ~overlay program))
             in
             let posthoc = report `Posthoc in
             tr.Trace.enabled <- ctx.Common.tracing;
             let streamed = report `Stream in
             tr.Trace.enabled <- false;
             if String.equal streamed posthoc then None
             else Some (input.key ^ ": streamed and post-hoc overlay reports differ")
         | Explore _ -> None)

let run (ctx : Common.ctx) =
  let (inputs, nmutants, dropped), setup_s =
    Loop.repeat_timed (fun () -> setup ctx)
  in
  let inputs = Common.shuffle (Common.rng ctx 0x52) inputs in
  let nops = Array.length inputs in
  let loop =
    Loop.run ?tracer:(Common.tracer ctx) ~budget:ctx.Common.budget ~warmup:nops ~heap_at:2000
      ~nops ~size:1 (fun i ->
        op ctx ~seed:(Hashtbl.hash (ctx.Common.seed, i)) inputs.(i mod nops))
  in
  let disagreements = overlay_agreement ctx inputs in
  let tr = ctx.Common.tr in
  let self = Trace.self_ms tr in
  let self_ms name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  {
    Common.loop;
    setup_s;
    correct = loop.Loop.failed = 0 && disagreements = [];
    notes =
      Printf.sprintf
        "simulate: %d ops per cycle (%d P2P-free divergence mutants, %d dropped as invalid)"
        nops nmutants dropped
      :: disagreements;
    layer =
      [
        ( "interp.steps_per_s",
          ratio (Trace.counter tr "interp.sim_steps") (self_ms "interp.sim" /. 1e3) );
        ( "interp.explore_replay_share",
          ratio (Trace.counter tr "interp.explore_replays") (Trace.counter tr "interp.explore_runs") );
        ( "interp.dpor_useful_share",
          ratio
            (Trace.counter tr "interp.dpor_representatives")
            (Trace.counter tr "interp.dpor_replays") );
      ];
  }

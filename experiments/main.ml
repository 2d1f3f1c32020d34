(** The paper's evaluation (§4), reproduced as tables.

    Sections (run all with [dune exec experiments/main.exe], or select
    with [dune exec experiments/main.exe -- figure1 warnings ...]):

    - [figure1]   — the paper's only figure: compile-time overhead (%) of
      "warnings" and "warnings + verification code generation" over the
      plain compilation pipeline, for BT-MZ, SP-MZ, LU-MZ, the EPCC suite
      and HERA, timed in interleaved rounds.
    - [warnings]  — the §4 textual report: warning counts and classes per
      benchmark, plus inserted-check counts.
    - [runtime]   — runtime-check cost (§3 "low overhead ... selective
      instrumentation"): simulator steps, CC rendezvous and counter
      checks for none / selective / exhaustive instrumentation.
    - [taint]     — ablation: phase-3 warnings and CC sites with and
      without the rank-taint conditional filter.
    - [returns]   — ablation: detection of early-return divergence with
      and without the before-return CC checks.
    - [overlay]   — the dynamic tools' substrate: a central server
      (Marmot) against a fan-out tree (MUST).
    - [interproc] — ablation: the interprocedural call-site extension.
    - [explore]   — schedule coverage: random seeds against bounded
      exploration.

    Every section except [figure1] is deterministic: [dune runtest]
    diffs their output against [expected.txt] ([dune promote] accepts a
    change).

    The absolute numbers depend on this OCaml implementation; the claims
    being reproduced are the {e shapes}: overheads in the single-digit
    percent range, code generation roughly doubling the warnings-only
    overhead, the EPCC suite and HERA costing the most, and selective
    instrumentation far below exhaustive. *)

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* Interleaved measurement: all thunks are timed round-robin across
   [rounds] rounds, and each thunk reports its median.  Interleaving makes
   slow drift (GC heap growth, frequency scaling) hit every pipeline
   equally, which matters because Figure 1 compares ratios of
   pipelines that differ by a few percent. *)
let interleaved_samples ?(rounds = 81) thunks =
  List.iter (fun (_, f) -> f (); f ()) thunks;
  let n = List.length thunks in
  let thunk_arr = Array.of_list thunks in
  let samples =
    List.map (fun (name, _) -> (name, Array.make rounds 0.)) thunks
  in
  let sample_arr = Array.of_list samples in
  let rng = Random.State.make [| 0x5eed |] in
  let order = Array.init n (fun i -> i) in
  for round = 0 to rounds - 1 do
    (* Fisher-Yates shuffle: kills positional bias (GC pressure left by
       the previous thunk would otherwise always hit the same victim). *)
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    Array.iter
      (fun idx ->
        let _, f = thunk_arr.(idx) in
        let _, arr = sample_arr.(idx) in
        Gc.minor ();
        let t0 = Unix.gettimeofday () in
        f ();
        let t1 = Unix.gettimeofday () in
        arr.(round) <- t1 -. t0)
      order
  done;
  samples

let median xs =
  let xs = Array.copy xs in
  Array.sort compare xs;
  xs.(Array.length xs / 2)

(* Median of the per-round paired overhead ratios (in %): rounds share
   whatever drift the machine has, so pairing within a round is far more
   stable than comparing two independent medians. *)
let paired_overhead base variant =
  let ratios =
    Array.init (Array.length base) (fun r ->
        (variant.(r) -. base.(r)) /. base.(r) *. 100.)
  in
  median ratios


let bar width pct max_pct =
  let n =
    if max_pct <= 0. then 0
    else int_of_float (Float.round (pct /. max_pct *. float_of_int width))
  in
  String.make (max 0 n) '#'

(* ------------------------------------------------------------------ *)
(* The compilation pipelines                                           *)
(* ------------------------------------------------------------------ *)

(* The compilation model mirrors where PARCOACH sits inside GCC:

   front+middle end: parse, validate, build CFGs, run the classic
   middle-end analyses (dominance + frontiers, liveness, reaching
   definitions, constant propagation, available expressions, copy
   propagation, loops);

   [the PARCOACH phases and instrumentation run here, reusing the CFGs]

   back end: the remaining passes process whatever code is left — for the
   codegen pipeline that includes the inserted verification code, whose
   CFGs must be rebuilt — and the final program is emitted. *)
let front_and_middle source =
  let program = Minilang.Parser.parse_string ~file:"bench" source in
  ignore (Minilang.Validate.check_program program);
  let graphs = Cfg.Build.of_program program in
  List.iter
    (fun g ->
      let dom = Cfg.Dominance.compute g Cfg.Dominance.Forward in
      ignore (Cfg.Dominance.frontiers dom);
      ignore (Cfg.Dataflow.liveness g);
      ignore (Cfg.Dataflow.reaching_definitions g);
      ignore (Cfg.Dataflow.constant_propagation g);
      ignore (Cfg.Dataflow.available_expressions g);
      ignore (Cfg.Dataflow.copy_propagation g);
      ignore (Cfg.Loops.detect g))
    graphs;
  (program, graphs)

let back_end program graphs =
  List.iter
    (fun g ->
      ignore (Cfg.Dataflow.liveness g);
      ignore (Cfg.Dataflow.constant_propagation g);
      ignore (Cfg.Dataflow.copy_propagation g))
    graphs;
  Minilang.Pretty.program_to_string program

(* Plain compilation. *)
let compile_baseline source =
  let program, graphs = front_and_middle source in
  back_end program graphs

(* Compilation + the PARCOACH static analysis (warnings only), reusing
   the compiler's CFGs.  [jobs:1]: Figure 1 measures the overhead the
   analysis adds to a sequential compiler pipeline, so the domain count
   stays out of the picture. *)
let compile_warnings source =
  let program, graphs = front_and_middle source in
  let report = Parcoach.Driver.analyze ~graphs ~jobs:1 program in
  ignore (Parcoach.Driver.all_warnings report);
  back_end program graphs

(* Compilation + analysis + verification code generation: the inserted
   checks flow through the back end (whose CFGs must be rebuilt) and the
   emitted program is the instrumented one. *)
let compile_codegen source =
  let program, graphs = front_and_middle source in
  let report = Parcoach.Driver.analyze ~graphs ~jobs:1 program in
  ignore (Parcoach.Driver.all_warnings report);
  let instrumented =
    Parcoach.Instrument.instrument report Parcoach.Instrument.Selective
  in
  let graphs' = Cfg.Build.of_program instrumented in
  back_end instrumented graphs'

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  Fmt.pr "@.== Figure 1: compile-time overhead (%%) ==@.";
  Fmt.pr
    "(baseline: parse + validate + CFG + dominance + dataflow + emission)@.@.";
  let sources =
    List.map
      (fun (e : Benchsuite.Catalog.entry) ->
        ( e.Benchsuite.Catalog.name,
          Minilang.Pretty.program_to_string (e.Benchsuite.Catalog.generate ()) ))
      Benchsuite.Catalog.all
  in
  let thunks =
    List.concat_map
      (fun (name, source) ->
        [
          (name ^ "/baseline", fun () -> ignore (compile_baseline source));
          (name ^ "/warnings", fun () -> ignore (compile_warnings source));
          (name ^ "/codegen", fun () -> ignore (compile_codegen source));
        ])
      sources
  in
  let rows = interleaved_samples thunks in
  let samples name = List.assoc name rows in
  let results =
    List.map
      (fun (name, _) ->
        let base = samples (name ^ "/baseline") in
        let warn = samples (name ^ "/warnings") in
        let gen = samples (name ^ "/codegen") in
        ( name,
          median base *. 1e9,
          paired_overhead base warn,
          paired_overhead base gen ))
      sources
  in
  Fmt.pr "%-12s | %12s | %10s | %18s@." "benchmark" "baseline(ms)" "warnings"
    "warnings+codegen";
  Fmt.pr "%s@." (String.make 62 '-');
  List.iter
    (fun (name, base, w, g) ->
      Fmt.pr "%-12s | %12.2f | %9.2f%% | %17.2f%%@." name (base /. 1e6) w g)
    results;
  let max_pct =
    List.fold_left (fun acc (_, _, w, g) -> Float.max acc (Float.max w g)) 1. results
  in
  Fmt.pr "@.%s@." "Overhead of average compilation time (ASCII rendering of Figure 1):";
  List.iter
    (fun (name, _, w, g) ->
      Fmt.pr "%-12s warnings          %6.2f%% |%s@." name w (bar 40 w max_pct);
      Fmt.pr "%-12s warnings+codegen  %6.2f%% |%s@." "" g (bar 40 g max_pct))
    results;
  Fmt.pr
    "@.Paper's reported shape: all overheads below 6%%; code generation adds@.";
  Fmt.pr "on top of warnings-only; the largest codes cost the most.@."

(* ------------------------------------------------------------------ *)
(* §4 warnings report                                                  *)
(* ------------------------------------------------------------------ *)

let warnings_section () =
  Fmt.pr "@.== Static warnings per benchmark (the §4 report) ==@.@.";
  Fmt.pr "%-12s | %6s | %9s | %-34s | %s@." "benchmark" "stmts" "colls"
    "warnings by class" "checks (CC/counters/returns)";
  Fmt.pr "%s@." (String.make 110 '-');
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let program = e.Benchsuite.Catalog.generate () in
      let report = Parcoach.Driver.analyze program in
      let by_class = Parcoach.Driver.warnings_by_class report in
      let cc, counters, returns =
        Parcoach.Instrument.check_counts report Parcoach.Instrument.Selective
      in
      Fmt.pr "%-12s | %6d | %9d | %-34s | %d/%d/%d@." e.Benchsuite.Catalog.name
        (Minilang.Ast.program_size program)
        (Benchsuite.Injector.collective_count program)
        (if by_class = [] then "(none)"
         else
           String.concat ", "
             (List.map (fun (c, n) -> Printf.sprintf "%s: %d" c n) by_class))
        cc counters returns)
    Benchsuite.Catalog.all

(* ------------------------------------------------------------------ *)
(* Runtime-check overhead                                              *)
(* ------------------------------------------------------------------ *)

let runtime_section () =
  Fmt.pr
    "@.== Runtime verification overhead (simulator, selective vs exhaustive) ==@.@.";
  let config =
    {
      Interp.Sim.nranks = 4;
      default_nthreads = 3;
      schedule = `Random 42;
      max_steps = 50_000_000;
      entry = "main";
      record_trace = false;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  Fmt.pr "%-12s | %-10s | %9s | %8s | %9s@." "benchmark" "mode" "steps"
    "ccRdv" "counters";
  Fmt.pr "%s@." (String.make 62 '-');
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let program = e.Benchsuite.Catalog.generate_small () in
      let report = Parcoach.Driver.analyze program in
      let variants =
        [
          ("none", program);
          ( "selective",
            Parcoach.Instrument.instrument report Parcoach.Instrument.Selective );
          ( "exhaustive",
            Parcoach.Instrument.instrument report Parcoach.Instrument.Exhaustive );
        ]
      in
      List.iter
        (fun (mode, prog) ->
          let result = Interp.Sim.run ~config prog in
          (match result.Interp.Sim.outcome with
          | Interp.Sim.Finished -> ()
          | o ->
              Fmt.pr "!! %s/%s did not finish: %s@." e.Benchsuite.Catalog.name
                mode (Interp.Sim.outcome_to_string o));
          Fmt.pr "%-12s | %-10s | %9d | %8d | %9d@."
            e.Benchsuite.Catalog.name mode result.Interp.Sim.stats.Interp.Sim.steps
            (Mpisim.Engine.cc_check_count result.Interp.Sim.engine)
            result.Interp.Sim.stats.Interp.Sim.counter_checks)
        variants)
    Benchsuite.Catalog.all;
  Fmt.pr
    "@.Shape: selective adds few checks (only flagged functions); exhaustive@.";
  Fmt.pr "pays a CC rendezvous per collective per rank plus counters everywhere.@."

(* ------------------------------------------------------------------ *)
(* Rank-taint ablation                                                 *)
(* ------------------------------------------------------------------ *)

let taint_section () =
  Fmt.pr "@.== Ablation: rank-taint filtering of phase-3 conditionals ==@.@.";
  Fmt.pr "%-12s | %18s | %18s@." "benchmark" "flagged (no filter)"
    "flagged (taint)";
  Fmt.pr "%s@." (String.make 56 '-');
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let program = e.Benchsuite.Catalog.generate () in
      let flagged options =
        let report = Parcoach.Driver.analyze ~options program in
        List.fold_left
          (fun acc fr ->
            acc + List.length fr.Parcoach.Driver.phase3.Parcoach.Interproc.flagged)
          0 report.Parcoach.Driver.funcs
      in
      let plain = flagged Parcoach.Driver.default_options in
      let tainted =
        flagged
          { Parcoach.Driver.default_options with Parcoach.Driver.taint_filter = true }
      in
      Fmt.pr "%-12s | %18d | %18d@." e.Benchsuite.Catalog.name plain tainted)
    Benchsuite.Catalog.all;
  Fmt.pr
    "@.Shape: uniform loops/conditionals (time-step loops, periodic dumps)@.";
  Fmt.pr
    "are discarded by the filter; genuinely rank-dependent branches remain.@."

(* ------------------------------------------------------------------ *)
(* Return-check ablation                                               *)
(* ------------------------------------------------------------------ *)

(* Strips the before-return CC checks from an instrumented program. *)
let strip_return_checks (program : Minilang.Ast.program) =
  let open Minilang in
  let is_return_check (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Ast.Check Ast.Cc_return -> true
    | Ast.Omp_single { body = [ { Ast.sdesc = Ast.Check Ast.Cc_return; _ } ]; _ }
      ->
        true
    | _ -> false
  in
  {
    Ast.funcs =
      List.map
        (fun f ->
          Ast.map_blocks
            (fun block -> List.filter (fun s -> not (is_return_check s)) block)
            f)
        program.Ast.funcs;
  }

let returns_section () =
  Fmt.pr "@.== Ablation: CC checks before return statements ==@.@.";
  let source =
    {|
func main() {
  var x = 0;
  if (rank() == 0) { return; }
  x = MPI_Allreduce(1, sum);
  MPI_Barrier();
}
|}
  in
  let program = Minilang.Parser.parse_string ~file:"ablation" source in
  let report = Parcoach.Driver.analyze program in
  let instrumented =
    Parcoach.Instrument.instrument report Parcoach.Instrument.Selective
  in
  let stripped = strip_return_checks instrumented in
  let config seed =
    {
      Interp.Sim.nranks = 3;
      default_nthreads = 2;
      schedule = `Random seed;
      max_steps = 200_000;
      entry = "main";
      record_trace = false;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  let classify prog =
    let outcomes =
      List.map
        (fun seed ->
          match (Interp.Sim.run ~config:(config seed) prog).Interp.Sim.outcome with
          | Interp.Sim.Finished -> "finished"
          | Interp.Sim.Aborted _ -> "clean abort"
          | Interp.Sim.Fault _ -> "fault"
          | Interp.Sim.Deadlock _ -> "deadlock"
          | Interp.Sim.Step_limit -> "step limit")
        (List.init 10 (fun i -> i + 1))
    in
    let tally = Hashtbl.create 4 in
    List.iter
      (fun o ->
        Hashtbl.replace tally o (1 + Option.value ~default:0 (Hashtbl.find_opt tally o)))
      outcomes;
    String.concat ", "
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s: %d/10" k v :: acc) tally []))
  in
  Fmt.pr "program: rank 0 returns early, the others reach the collectives@.@.";
  Fmt.pr "uninstrumented:        %s@." (classify program);
  Fmt.pr "with return checks:    %s@." (classify instrumented);
  Fmt.pr "without return checks: %s@." (classify stripped);
  Fmt.pr
    "@.Shape: the before-return CC converts the deadlock into a located clean@.";
  Fmt.pr "abort; removing it leaves the other ranks blocked in their CC.@."

(* ------------------------------------------------------------------ *)
(* Interprocedural-extension ablation                                  *)
(* ------------------------------------------------------------------ *)

(* The paper's phases are intra-procedural.  The extension summarises the
   call graph ("may this function execute collectives?") and lets phase 3
   flag rank-dependent *calls* to such functions.  This section shows the
   false-negative it removes and that the benchmarks stay clean. *)
let interproc_section () =
  Fmt.pr "@.== Ablation: interprocedural call-site extension ==@.@.";
  let leaf_case =
    {|func leaf() { MPI_Barrier(); }
      func main() { if (rank() == 0) { leaf(); } MPI_Allgather(1); }|}
  in
  let program = Minilang.Parser.parse_string ~file:"leaf-case" leaf_case in
  let intra = Parcoach.Driver.analyze program in
  let inter =
    Parcoach.Driver.analyze
      ~options:
        { Parcoach.Driver.default_options with Parcoach.Driver.interprocedural = true }
      program
  in
  Fmt.pr "rank-divergent call to a collective-bearing function:@.";
  Fmt.pr "  intra-procedural warnings:    %d (missed)@."
    (Parcoach.Driver.warning_count intra);
  Fmt.pr "  interprocedural warnings:     %d@."
    (Parcoach.Driver.warning_count inter);
  let run report =
    let inst = Parcoach.Instrument.instrument report Parcoach.Instrument.Selective in
    let config =
      {
        Interp.Sim.nranks = 3;
        default_nthreads = 2;
        schedule = `Random 42;
        max_steps = 1_000_000;
        entry = "main";
        record_trace = false;
        thread_level = Mpisim.Thread_level.Multiple;
      }
    in
    Interp.Sim.outcome_to_string (Interp.Sim.run ~config inst).Interp.Sim.outcome
  in
  Fmt.pr "  instrumented (intra):         %s@." (run intra);
  Fmt.pr "  instrumented (interproc):     %s@.@." (run inter);
  Fmt.pr "%-12s | %16s | %16s | %12s@." "benchmark" "intra warnings"
    "inter warnings" "extra CC";
  Fmt.pr "%s@." (String.make 66 '-');
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let p = e.Benchsuite.Catalog.generate () in
      let intra = Parcoach.Driver.analyze p in
      let inter =
        Parcoach.Driver.analyze
          ~options:
            {
              Parcoach.Driver.default_options with
              Parcoach.Driver.interprocedural = true;
            }
          p
      in
      let cc_of r =
        let cc, _, _ = Parcoach.Instrument.check_counts r Parcoach.Instrument.Selective in
        cc
      in
      Fmt.pr "%-12s | %16d | %16d | %+12d@." e.Benchsuite.Catalog.name
        (Parcoach.Driver.warning_count intra)
        (Parcoach.Driver.warning_count inter)
        (cc_of inter - cc_of intra))
    Benchsuite.Catalog.all;
  Fmt.pr
    "@.Shape: the extension closes the cross-function false negative at the@.";
  Fmt.pr
    "price of CC checks at collective-bearing call sites of flagged functions.@."

(* ------------------------------------------------------------------ *)
(* Overlay-network comparison (MUST / Marmot substrate)                *)
(* ------------------------------------------------------------------ *)

(* The paper situates PARCOACH against dynamic-only tools: Marmot
   (centralized) and MUST (tree-based overlay).  This section reproduces
   the architectural comparison those tools rest on (per-round cost of a
   central server vs a fan-out tree). *)
let overlay_section () =
  Fmt.pr "@.== Dynamic-tool substrate: centralized vs tree overlay ==@.@.";
  Fmt.pr "%-8s | %-12s | %6s | %10s | %14s@." "ranks" "topology" "depth"
    "max fan-in" "msgs/round";
  Fmt.pr "%s@." (String.make 62 '-');
  List.iter
    (fun nranks ->
      List.iter
        (fun (label, fanout) ->
          let trace = [ { Mpisim.Engine.signature = (Mpisim.Coll.Barrier, None, None); payload = 0; event_site = "s" } ] in
          let r = Mustlike.Overlay.check ~fanout (Array.make nranks trace) in
          Fmt.pr "%-8d | %-12s | %6d | %10d | %14d@." nranks label
            r.Mustlike.Overlay.tree_depth r.Mustlike.Overlay.tree_max_fan_in
            r.Mustlike.Overlay.messages)
        [
          ("central", max 2 nranks);
          ("tree k=4", 4);
          ("tree k=2", 2);
        ])
    [ 8; 32; 128; 512 ];
  Fmt.pr
    "@.Shape (Hilbrich et al. 2013): the tree bounds the busiest tool@.";
  Fmt.pr "process's fan-in at k, at the price of log_k(P) extra latency.@."

(* ------------------------------------------------------------------ *)
(* Schedule-coverage ablation: seed sampling vs bounded exploration    *)
(* ------------------------------------------------------------------ *)

(* Dynamic checks only fire on schedules where the race manifests; this
   section compares how reliably random seeds and the bounded explorer
   exhibit the phase-2 races of instrumented programs. *)
let explore_section () =
  Fmt.pr "@.== Schedule coverage: random seeds vs bounded exploration ==@.@.";
  let cases =
    [
      ( "two nowait singles",
        {|func main() { pragma omp parallel num_threads(2) {
           pragma omp single nowait { MPI_Barrier(); }
           pragma omp single { MPI_Allgather(1); } } }|} );
      ( "master vs single",
        {|func main() { pragma omp parallel num_threads(2) {
           pragma omp master { MPI_Barrier(); }
           pragma omp single { MPI_Allgather(1); } } }|} );
      ( "three sections, one collective each",
        {|func main() { pragma omp parallel num_threads(3) {
           pragma omp sections {
             section { MPI_Barrier(); }
             section { MPI_Allgather(1); }
             section { compute(3); }
           } } }|} );
    ]
  in
  let config =
    {
      Interp.Sim.nranks = 2;
      default_nthreads = 2;
      schedule = `Round_robin;
      max_steps = 200_000;
      entry = "main";
      record_trace = false;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  Fmt.pr "%-36s | %-22s | %-30s@." "case" "30 random seeds" "explorer (≤3000 schedules)";
  Fmt.pr "%s@." (String.make 96 '-');
  List.iter
    (fun (name, src) ->
      let program = Minilang.Parser.parse_string ~file:"case" src in
      let report = Parcoach.Driver.analyze program in
      let inst =
        Parcoach.Instrument.instrument report Parcoach.Instrument.Selective
      in
      let aborts =
        List.length
          (List.filter
             (fun seed ->
               Interp.Sim.is_clean_abort
                 (Interp.Sim.run
                    ~config:{ config with Interp.Sim.schedule = `Random seed }
                    inst))
             (List.init 30 (fun i -> i + 1)))
      in
      let summary =
        Interp.Explore.outcomes ~branch_depth:10 ~budget:3000 ~config inst
      in
      Fmt.pr "%-36s | %2d/30 seeds abort      | %d/%d schedules abort%s@." name
        aborts summary.Interp.Explore.aborted summary.Interp.Explore.runs
        (if Interp.Explore.reaches summary "aborted" then " (witness kept)"
         else "");
      ())
    cases;
  Fmt.pr
    "@.Shape: random sampling exhibits the race in a fraction of runs; the@.";
  Fmt.pr
    "explorer enumerates the interleavings and keeps a replayable witness.@."

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("figure1", figure1);
    ("warnings", warnings_section);
    ("runtime", runtime_section);
    ("taint", taint_section);
    ("returns", returns_section);
    ("overlay", overlay_section);
    ("interproc", interproc_section);
    ("explore", explore_section);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown section '%s' (known: %s)@." name
            (String.concat ", " (List.map fst sections));
          exit 2)
    requested

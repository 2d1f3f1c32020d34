(** Golden observables: the pinned reports, schedules, explorations and
    overlay reports of the paper's static/dynamic pipeline, and the
    front end's, the CFG builder's, the request pass's and the daemon's
    pins.  [main.exe golden SECTION
    FILE] writes one line per input, "name<TAB>pin", to FILE; a
    [runtest] rule per section diffs it against
    [golden/SECTION.expected], and [dune promote] records an intended
    change.  A multi-line observable gets one line per schedule or
    explorer, its name suffixed with the schedule or explorer.  The
    sections, and what each pin covers, are documented at their
    printers below ([frontend_lines], [report_lines], ...).  The
    shipped programs are the sample [.hml] files, the reproducers and
    the catalog at its three sizes. *)

open Minilang

let programs_dir = "../examples/programs"

let read path = In_channel.with_open_bin path In_channel.input_all

(* The compile workload's mutant set: for each bug and each Figure-1
   catalog program with a site for it, three seeded site draws with
   repeats dropped, keeping the mutants that validate. *)
let mutants ~seed =
  let rng = Random.State.make [| 0xc0; seed |] in
  let figure1 =
    List.map
      (fun (e : Benchsuite.Catalog.entry) -> (e.name, e.generate ()))
      Benchsuite.Catalog.all
  in
  List.concat_map
    (fun bug ->
      List.concat_map
        (fun (name, p) ->
          let nsites =
            if Benchsuite.Injector.targets_wait bug then
              Benchsuite.Injector.wait_count p
            else Benchsuite.Injector.collective_count p
          in
          let sites =
            if nsites > 0 then
              List.init 3 (fun _ -> Random.State.int rng nsites)
              |> List.fold_left
                   (fun seen i -> if List.mem i seen then seen else i :: seen)
                   []
              |> List.rev
            else []
          in
          List.filter_map
            (fun index ->
              let m = Benchsuite.Injector.inject bug ~index p in
              if Validate.is_valid (Validate.check_program m) then
                Some
                  ( Printf.sprintf "mutant:%s@%s#%d"
                      (Benchsuite.Injector.short_name bug)
                      name index,
                    Pretty.program_to_string m )
              else None)
            sites)
        figure1)
    Benchsuite.Injector.all

(* The sample program files, in a fixed order. *)
let example_files () =
  Sys.readdir programs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hml")
  |> List.sort String.compare

(* The fixed-seed generated corpus: the first programs QCheck draws from
   [Test_qcheck]'s generators under fixed seeds.  The [corpus] line of
   the [schedules] section pins their pretty-printed text, so a change
   to QCheck or to a generator moves that line, not only the runs. *)
let draw gen ~seed n =
  QCheck.Gen.generate ~rand:(Random.State.make [| seed |]) ~n gen

let corpus = lazy (draw Test_qcheck.gen_program ~seed:19 40)

let racy_corpus = lazy (draw Test_qcheck.gen_racy_program ~seed:1312 25)

let numbered prefix l =
  List.mapi (fun i x -> (Printf.sprintf "%s-%02d" prefix i, x)) l

(* ------------------------------------------------------------------ *)
(* Front end                                                            *)
(* ------------------------------------------------------------------ *)

(* Every shipped program, as (name, source), in a fixed order. *)
let shipped =
  lazy
    (let examples =
       List.map
         (fun f -> ("examples/" ^ f, read (Filename.concat programs_dir f)))
         (example_files ())
     in
     let reproducers =
       List.map
         (fun (e : Benchsuite.Reproducers.entry) ->
           ("reproducers/" ^ e.name, e.source))
         Benchsuite.Reproducers.all
     in
     let catalog =
       List.concat_map
         (fun (e : Benchsuite.Catalog.entry) ->
           List.map
             (fun (size, gen) ->
               ( Printf.sprintf "catalog/%s/%s" e.name size,
                 Pretty.program_to_string (gen ()) ))
             [
               ("small", e.generate_small);
               ("figure1", e.generate);
               ("large", e.generate_large);
             ])
         Benchsuite.Catalog.all
     in
     examples @ reproducers @ catalog)

let md5 s = Digest.to_hex (Digest.string s)

let token_digest ~file src =
  let buf = Buffer.create 65536 in
  List.iter
    (fun t ->
      Buffer.add_string buf (Test_frontend.render_token t);
      Buffer.add_char buf '\n')
    (Lexer.tokenize ~file src);
  md5 (Buffer.contents buf)

let ast_digest ~file src =
  let p = Parser.parse_string ~file src in
  md5 (Marshal.to_string p [ Marshal.No_sharing ])

(* A test-only source of lexer edge cases: words one letter off a
   keyword, [section] next to [sections], CRLF line ends and tabs,
   multi-line block comments, ['#   pragma'], [max_int] as a literal and
   a line comment at the end of the file, with no final newline. *)
let lexer_edges = "lexer_edges.hml"

(* [frontend]: for every shipped program and for [lexer_edges], a digest
   of the [(token, Loc.t)] stream and of the parsed AST.  A lexer or
   parser change that moves a token, a location or an AST node moves a
   pin. *)
let frontend_lines () =
  List.map
    (fun (name, src) ->
      (name, token_digest ~file:name src ^ " " ^ ast_digest ~file:name src))
    (Lazy.force shipped @ [ ("test/" ^ lexer_edges, read lexer_edges) ])

(* ------------------------------------------------------------------ *)
(* Static reports                                                       *)
(* ------------------------------------------------------------------ *)

(* Every source input, as (name, source), in a fixed order. *)
let sources =
  lazy
    (let generated =
       List.map
         (fun (name, p) -> (name, Pretty.program_to_string p))
         (numbered "corpus/program" (Lazy.force corpus)
         @ numbered "corpus/racy" (Lazy.force racy_corpus))
     in
     Lazy.force shipped @ mutants ~seed:1 @ generated)

let options =
  {
    Parcoach.Driver.default_options with
    taint_filter = true;
    interprocedural = true;
    races = true;
    requests = true;
  }

let invalid issues = Parcoach.Json_report.invalid_to_string issues ^ "\n"

(* What the parcoachc command above prints after parsing [program]. *)
let program_report program =
  let issues = Validate.check_program program in
  if not (Validate.is_valid issues) then invalid issues
  else
    let report = Parcoach.Driver.analyze ~options program in
    let mode = Parcoach.Instrument.Selective in
    let ccs, counters, returns = Parcoach.Instrument.check_counts report mode in
    String.concat ""
      [
        Parcoach.Json_report.to_string ~issues report;
        "\n";
        Pretty.program_to_string (Parcoach.Instrument.instrument report mode);
        Printf.sprintf "inserted checks: %d CC, %d counters, %d return checks\n"
          ccs counters returns;
      ]

(* The standard output of the parcoachc command above, on [src] read
   from a file named [file]. *)
let report ~file src =
  match
    Validate.catch_syntax_error (fun () -> Parser.parse_string ~file src)
  with
  | Error issue -> invalid [ issue ]
  | Ok program -> program_report program

(* The default farm corpus (400 families × 6 variants), analysed as the
   builder ASTs the farm itself analyses, in slices of [farm_slice]
   entries: one pin covers the concatenated reports of a slice. *)
let farm_slice = 100

let farm_slices =
  lazy
    (let corpus =
       Farm.Pipeline.corpus
         { Farm.Pipeline.default_spec with Farm.Pipeline.families = 400 }
     in
     List.init
       (Array.length corpus / farm_slice)
       (fun k ->
         ( Printf.sprintf "farm/%04d-%04d" (k * farm_slice)
             (((k + 1) * farm_slice) - 1),
           Array.to_list
             (Array.map
                (fun (e : Farm.Pipeline.entry) -> e.Farm.Pipeline.program)
                (Array.sub corpus (k * farm_slice) farm_slice)) )))

(* Block-scope edge cases, inline.  The first three are valid, and their
   reports pin the race warnings: names shadowed inside [parallel],
   [for], [omp for] and a [reduction] and used again after the block
   ends; statements of nested teams that read the same names once
   shared and once private, several per expression (['B'], ['_z'],
   ['a'], ['p'] sort in that order); the same names declared again in
   another function.  The last one is invalid, and its report pins the
   validator's issues: uses after block exit, a request that shadows a
   variable and a variable that shadows it again, and a name declared
   only in another function. *)
let scope_sources =
  [
    ( "scope/shadow-blocks",
      {|func main() {
  var x = 0;
  var s = 0;
  pragma omp parallel num_threads(2) {
    x = x + 1;
    var x = 5;
    x = x + 1;
    pragma omp for i = 0 to 4 reduction(sum: s) nowait {
      var s = i;
      s = s + x;
    }
    s = s + 1;
    for x = 0 to 2 {
      s = s + x;
    }
    x = s;
  }
  print(x + s);
}|} );
    ( "scope/depths",
      {|func main() {
  var a = 0;
  var B = 0;
  var _z = 0;
  pragma omp parallel num_threads(2) {
    var p = a;
    pragma omp parallel num_threads(2) {
      _z = p + a + B + p + _z;
      var a = p;
      p = a + B;
    }
    a = p + _z;
  }
  print(a + B + _z);
}|} );
    ( "scope/functions",
      {|func helper(x, n) {
  var y = x;
  pragma omp parallel num_threads(2) {
    y = y + n;
    var x = y;
    n = x;
  }
  print(y + n);
}
func main() {
  var y = 1;
  var x = 2;
  var n = 3;
  pragma omp parallel num_threads(2) {
    n = x + y;
    var y = n;
    x = y;
  }
  helper(x, n);
}|} );
    ( "scope/validator",
      {|func other(q) {
  var t = q;
  print(t);
}
func main() {
  var a = 0;
  var r = 1;
  var r2 = 5;
  pragma omp parallel {
    var b = a;
    var a = b;
  }
  print(b);
  for i = 0 to 2 { var c = i; }
  print(c + i);
  pragma omp parallel {
    pragma omp for j = 0 to 4 reduction(sum: a) { var d = j; a = a + d; }
    print(j);
    print(d);
    pragma omp for k = 0 to 2 reduction(sum: k) { compute(k); }
  }
  if (rank() == 0) {
    r = MPI_Ibarrier();
    print(r);
    MPI_Wait(r);
    var r = 2;
    MPI_Wait(r);
    print(r);
    r2 = MPI_Ibarrier();
  }
  MPI_Wait(r);
  MPI_Wait(r2);
  r = 3;
  print(r2);
  q = MPI_Ibarrier();
  if (rank() == 1) { var q = 4; print(q); }
  for q = 0 to 1 { print(q); }
  MPI_Wait(q);
  print(q);
  print(t);
  other(r);
}|} );
  ]

(* A race only the barrier-cycle rule of the race pass reports: a thread
   that has passed the barrier reads [x] while another, a loop iteration
   ahead, writes it, although the two accesses sit in different barrier
   phases of one iteration. *)
let barrier_loop_source =
  {|func main() {
  var x = 0;
  pragma omp parallel num_threads(2) {
    for k = 0 to 3 {
      x = x + k;
      pragma omp barrier;
      print(x);
    }
  }
}|}

(* [reports]: for every shipped program, the injector mutants of the
   [compile] benchmark workload at seed 1 and the text of the
   fixed-seed generated corpus (whose programs exercise criticals,
   reductions, sections and loop bounds), the MD5 of what

   {v parcoachc --json --taint-filter --interprocedural --races --requests --instrument selective FILE v}

   prints: the JSON report, the instrumented program and the check
   counts.  Then one MD5 per 100-entry slice of the 2,400-program
   default farm corpus, analysed as builder ASTs, and the same MD5 for
   each of [scope_sources] and for [barrier_loop_source].  A change to any static pass that moves a
   warning, a location, a CC site or a byte of the rendering moves a
   pin. *)
let report_lines () =
  let reports = List.map (fun (name, src) -> (name, md5 (report ~file:name src))) in
  reports (Lazy.force sources)
  @ List.map
      (fun (name, programs) ->
        (name, md5 (String.concat "" (List.map program_report programs))))
      (Lazy.force farm_slices)
  @ reports (scope_sources @ [ ("races/barrier-loop", barrier_loop_source) ])

(* ------------------------------------------------------------------ *)
(* Scheduler observables                                                *)
(* ------------------------------------------------------------------ *)

(* Small programs, each reaching one task-status transition on every
   schedule below. *)
let sched_sources =
  [
    ( "sched/collective",
      {|func main() {
  if (rank() == 0) { compute(1); compute(1); compute(1); }
  var x = 0;
  x = MPI_Allreduce(rank() + 1, sum);
  MPI_Barrier();
  print(x);
}|} );
    ( "sched/barrier",
      {|func main() {
  pragma omp parallel num_threads(3) {
    compute(omp_tid());
    if (omp_tid() == 0) { compute(1); compute(1); }
    pragma omp barrier;
    print(omp_tid());
  }
}|} );
    ( "sched/critical",
      {|func main() {
  var c = 0;
  pragma omp parallel num_threads(3) {
    pragma omp critical {
      c = c + 1;
      compute(1);
      c = c + 1;
    }
  }
  print(c);
}|} );
    ( "sched/recv-wake",
      {|func main() {
  var x = 0;
  if (rank() == 0) { compute(1); compute(1); compute(1); MPI_Send(7, 1, 0); }
  if (rank() == 1) { x = MPI_Recv(0, 0); }
  print(x);
}|} );
    ( "sched/wait-round",
      {|func main() {
  if (rank() == 0) { compute(1); compute(1); compute(1); }
  r = MPI_Ibarrier();
  MPI_Wait(r);
  print(rank());
}|} );
    ( "sched/wait-irecv",
      {|func main() {
  var v = 0;
  if (rank() == 1) {
    r = MPI_Irecv(v, 0, 5);
    MPI_Wait(r);
  }
  if (rank() == 0) { compute(1); compute(1); compute(1); MPI_Send(3, 1, 5); }
  print(v);
}|} );
    ( "sched/double-wait",
      {|func main() {
  var v = 0;
  if (rank() == 1) {
    r = MPI_Irecv(v, 0, 5);
    pragma omp parallel num_threads(2) {
      MPI_Wait(r);
    }
  }
  if (rank() == 0) {
    compute(1); compute(1); compute(1); compute(1); compute(1); compute(1);
    MPI_Send(3, 1, 5);
  }
  print(v);
}|} );
  ]

let sched_schedules =
  [
    `Round_robin;
    `Random 1;
    `Random 2;
    `Random 3;
    `Scripted [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8 ];
    `Random 42;
    `Random 7;
    `Random 1337;
  ]

(* A probe widens the runnable-count record from the default 64 steps to
   the probe depth. *)
let sched_depth = 4096

let outcome_class = function
  | Interp.Sim.Finished -> "finished"
  | Interp.Sim.Aborted _ -> "aborted"
  | Interp.Sim.Fault _ -> "fault"
  | Interp.Sim.Deadlock _ -> "deadlock"
  | Interp.Sim.Step_limit -> "step-limit"

let sched_config nranks schedule =
  {
    Interp.Sim.nranks;
    default_nthreads = 2;
    schedule;
    max_steps = 200_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* "class steps spawned md5" for one run. *)
let sched_line (r : Interp.Sim.result) =
  let s = r.Interp.Sim.stats in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Interp.Sim.outcome_to_string r.Interp.Sim.outcome);
  Buffer.add_string b "\ndegrees";
  for i = 0 to s.Interp.Sim.ndegrees - 1 do
    Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int s.Interp.Sim.degrees.(i))
  done;
  Buffer.add_string b "\ntrace";
  List.iter
    (fun (rank, tid, v) -> Printf.bprintf b " %d/%d:%d" rank tid v)
    (Interp.Sim.trace r);
  Printf.sprintf "%s %d %d %s"
    (outcome_class r.Interp.Sim.outcome)
    s.Interp.Sim.steps s.Interp.Sim.tasks_spawned
    (md5 (Buffer.contents b))

(* One run under a [sched_depth] probe: its result and the probe holding
   its per-step state fingerprints. *)
let sched_run ~nranks program schedule =
  let probe = Interp.Sim.make_probe ~depth:sched_depth in
  (Interp.Sim.run ~config:(sched_config nranks schedule) ~probe program, probe)

(* "recorded md5": how many steps were fingerprinted, and the MD5 of the
   fingerprint sequence. *)
let fingerprint_line probe =
  let n = Interp.Sim.probe_recorded probe in
  let b = Buffer.create (n * 20) in
  for k = 0 to n - 1 do
    Buffer.add_string b (string_of_int (Interp.Sim.probe_fingerprint probe k));
    Buffer.add_char b '\n'
  done;
  Printf.sprintf "%d %s" n (md5 (Buffer.contents b))

(* A folded corpus line: the first word of each run line (the run class,
   or the recorded fingerprint count), then the MD5 of the run lines. *)
let fold_lines lines =
  let class_of line = List.hd (String.split_on_char ' ' line) in
  Printf.sprintf "%s %s"
    (String.concat "," (List.map class_of lines))
    (md5 (String.concat "\n" lines))

(* How a scheduled input runs: on [ranks] ranks × 2 threads, once per
   schedule, one pinned line per run — or, for a generated-corpus
   program ([fold]), one line for all its runs. *)
type sched_shape = {
  ranks : int;
  schedules : [ `Round_robin | `Random of int | `Scripted of int list ] list;
  fold : bool;
}

let standard = { ranks = 3; schedules = sched_schedules; fold = false }

(* Printing x0..x3 at the end of main makes the final values of the
   shared variables part of the pinned print trace. *)
let with_final_prints (p : Ast.program) =
  let prints =
    List.map
      (fun v -> Ast.mk ~loc:Loc.none (Ast.Print (Ast.Var v)))
      Test_qcheck.shared_vars
  in
  Builder.number_lines
    {
      Ast.funcs =
        List.map
          (fun (f : Ast.func) ->
            if f.Ast.fname = "main" then
              { f with Ast.body = f.Ast.body @ prints }
            else f)
          p.Ast.funcs;
    }

let corpus_text () =
  String.concat "\n"
    (List.map Pretty.program_to_string
       (Lazy.force corpus @ Lazy.force racy_corpus))

(* Every scheduled program, as (name, program, shape), in a fixed order;
   the ["+cc"] variant is the selectively instrumented program. *)
let sched_inputs =
  lazy
    (let examples =
       List.map
         (fun f ->
           ("examples/" ^ f, Parser.parse_file (Filename.concat programs_dir f)))
         (example_files ())
     in
     let catalog =
       List.map
         (fun (e : Benchsuite.Catalog.entry) ->
           ("catalog/" ^ e.name, e.generate_small ()))
         Benchsuite.Catalog.all
     in
     let reproducers =
       List.map
         (fun (e : Benchsuite.Reproducers.entry) ->
           ("reproducers/" ^ e.name, Benchsuite.Reproducers.program e))
         Benchsuite.Reproducers.all
     in
     let sched =
       List.map
         (fun (name, src) -> (name, Parser.parse_string ~file:name src))
         sched_sources
     in
     let two_ranks =
       { ranks = 2; schedules = Test_compile.schedules; fold = false }
     in
     let corpus_shape = { two_ranks with fold = true } in
     List.concat_map
       (fun (name, p) ->
         let report = Parcoach.Driver.analyze p in
         [
           (name, p, standard);
           ( name ^ "+cc",
             Parcoach.Instrument.instrument report Parcoach.Instrument.Selective,
             standard );
         ])
       (examples @ catalog @ reproducers @ sched)
     @ [
         ( "spawn-heavy/finishing",
           Test_compile.spawn_heavy "print(x);",
           two_ranks );
         ( "spawn-heavy/deadlocking",
           Test_compile.spawn_heavy_deadlock,
           two_ranks );
         ( "hostile-scripts",
           Test_compile.scripted_program,
           {
             ranks = 1;
             schedules =
               List.map (fun s -> `Scripted s) Test_compile.hostile_scripts;
             fold = false;
           } );
       ]
     @ List.map
         (fun (name, p) ->
           (name, with_final_prints p, corpus_shape))
         (numbered "corpus/program" (Lazy.force corpus))
     @ List.map
         (fun (name, p) -> (name, p, corpus_shape))
         (numbered "corpus/racy" (Lazy.force racy_corpus)))

let schedule_label = function
  | `Round_robin -> "round-robin"
  | `Random seed -> Printf.sprintf "random %d" seed
  | `Scripted l -> "scripted " ^ String.concat "," (List.map string_of_int l)

(* One pinned line per run of each input, or one folded line for all
   the runs of a [fold] input, each observed by [observe]. *)
let sched_lines observe inputs =
  List.concat_map
    (fun (name, p, shape) ->
      let lines =
        List.map
          (fun s -> observe (sched_run ~nranks:shape.ranks p s))
          shape.schedules
      in
      if shape.fold then [ (name, fold_lines lines) ]
      else
        List.map2
          (fun s l -> (Printf.sprintf "%s (%s)" name (schedule_label s), l))
          shape.schedules lines)
    inputs

(* [schedules]: every example, small catalog program and reproducer —
   plain and after selective instrumentation — plus small programs that
   drive each task-status transition of the simulator (collective
   completion, barrier release, critical handoff, receive woken by a
   send, [MPI_Wait] woken by a nonblocking round or by an [MPI_Irecv], a
   double-wait release, team join, finish) is run on 3 ranks × 2
   threads under round-robin, random seeds 1, 2, 3, 42, 7 and 1337 and
   one scripted choice list.  Each run is pinned by its outcome class,
   step count, spawned-task count and an MD5 of the outcome text, the
   per-step runnable counts and the print trace, on a line named after
   its schedule.  Two spawn-heavy programs and one program under hostile
   (negative, out-of-range) scripts run on the schedules of their own
   shape.  The generated corpus (40 deterministic and 25 racy programs)
   gets one folded line per program for all its runs, after a first
   [corpus] line pinning the MD5 of its text. *)
let schedule_lines () =
  ("corpus", md5 (corpus_text ()))
  :: sched_lines (fun (r, _) -> sched_line r) (Lazy.force sched_inputs)

(* Scheduled only for their fingerprints: each thread of a team meets
   one [single] construct again and again, so its per-construct instance
   counters climb past 1 and the team's claim table keeps growing. *)
let fingerprint_sources =
  [
    ( "fingerprints/single-loop",
      {|func main() {
  var s = 0;
  pragma omp parallel num_threads(2) {
    for i = 0 to 4 {
      pragma omp single nowait { s = s + 1; }
      pragma omp single { s = s + i; }
    }
  }
  print(s);
}|} );
  ]

(* [fingerprints]: the runs of [schedules], and those of
   [fingerprint_sources], each pinned by the state fingerprints its probe
   recorded (one per step, up to [sched_depth]).  A change to how the
   state is hashed that moves any fingerprint of any step moves a line,
   even where exploration's [replays]/[pruned] counts happen not to
   move. *)
let fingerprint_lines () =
  sched_lines
    (fun (_, probe) -> fingerprint_line probe)
    (Lazy.force sched_inputs
    @ List.map
        (fun (name, src) -> (name, Parser.parse_string ~file:name src, standard))
        fingerprint_sources)

(* Runnable counts an unprobed run records (a probe records its depth
   plus one instead). *)
let unprobed_degrees = 64

(* A probe may observe a run but never steer it: every example and
   reproducer, plain and [+cc], under round-robin and seeds 1-3, has the
   same [sched_line] with and without a [sched_depth] probe, which keeps
   more runnable counts: only the first [unprobed_degrees] are
   compared. *)
let probe_neutrality () =
  List.iter
    (fun (name, p, shape) ->
      if
        String.starts_with ~prefix:"examples/" name
        || String.starts_with ~prefix:"reproducers/" name
      then
        List.iter
          (fun schedule ->
            let config = sched_config shape.ranks schedule in
            let plain = sched_line (Interp.Sim.run ~config p) in
            let r, _ = sched_run ~nranks:shape.ranks p schedule in
            let s = r.Interp.Sim.stats in
            s.Interp.Sim.ndegrees <-
              Int.min s.Interp.Sim.ndegrees unprobed_degrees;
            Alcotest.(check string)
              (Printf.sprintf "%s (%s)" name (schedule_label schedule))
              plain (sched_line r))
          [ `Round_robin; `Random 1; `Random 2; `Random 3 ])
    (Lazy.force sched_inputs)

(* ------------------------------------------------------------------ *)
(* Exploration observables                                              *)
(* ------------------------------------------------------------------ *)

let explore_config nranks =
  {
    Interp.Sim.nranks;
    default_nthreads = 2;
    schedule = `Round_robin;
    max_steps = 200_000;
    entry = "main";
    record_trace = false;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* Same-block redeclaration and shadowing inside [parallel] and [for]
   bodies.  Each team member snapshots the racy [y] into a [var x] that
   shadows the forker's [x], then hides it behind a second [var x]:
   prefixes that differ only in the hidden snapshot must merge, and
   prefixes that differ in a visible one must not, so a fingerprint
   that hashes a shadowed binding, or misses a visible one, moves
   [replays] and [pruned]. *)
let shadowing_source =
  {|func main() {
  var x = rank();
  var y = 0;
  pragma omp parallel num_threads(2) {
    var x = y;
    y = y + 1;
    var x = 0;
    for i = 0 to 2 {
      var x = i;
      compute(x);
    }
  }
  var x = y;
  for i = 0 to 2 {
    var y = i;
    var x = y + 1;
    y = y + x;
  }
  MPI_Barrier();
  print(y + x);
}|}

(* Every explored input, as (name, program, ranks, branch depth, budget),
   in a fixed order.  The 3-rank depth-10 runs of the reproducers share
   one naming scheme; [deadlock-barrier]'s is listed first. *)
let explore_inputs =
  lazy
    (let window name p = (name, p, 2, 8, 2000) in
     List.map
       (fun f ->
         window ("examples/" ^ f)
           (Parser.parse_file (Filename.concat programs_dir f)))
       (example_files ())
     @ List.map
         (fun (e : Benchsuite.Reproducers.entry) ->
           window ("reproducers/" ^ e.name) (Benchsuite.Reproducers.program e))
         Benchsuite.Reproducers.all
     @ [
         ( "deadlock-barrier/ranks3-depth10",
           Benchsuite.Reproducers.load "deadlock-barrier",
           3,
           10,
           100_000 );
         ( "racy-ring/depth16",
           Benchsuite.Reproducers.load "racy-ring",
           2,
           16,
           2000 );
         ( "racy-ring/depth20",
           Benchsuite.Reproducers.load "racy-ring",
           2,
           20,
           2000 );
       ]
     @ List.filter_map
         (fun (e : Benchsuite.Reproducers.entry) ->
           if e.name = "deadlock-barrier" then None
           else
             Some
               ( e.name ^ "/ranks3-depth10",
                 Benchsuite.Reproducers.program e,
                 3,
                 10,
                 100_000 ))
         Benchsuite.Reproducers.all
     @ List.filteri
         (fun i _ -> i < 10)
         (List.map
            (fun (name, p) -> (name ^ "/depth4", p, 2, 4, 20_000))
            (numbered "corpus/racy" (Lazy.force racy_corpus)))
     @ [
         ( "shadowing/depth12",
           Parser.parse_string ~file:"shadowing" shadowing_source,
           2,
           12,
           2000 );
       ])

(* "finished/aborted/fault/deadlock/step-limit runs R replays P pruned Q
   [witness classes]" for one exploration. *)
let explore_observe (s : Interp.Explore.summary) =
  Printf.sprintf "%d/%d/%d/%d/%d runs %d replays %d pruned %d [%s]"
    s.finished s.aborted s.faulted s.deadlocked s.step_limited s.runs
    s.replays s.pruned
    (String.concat " " (List.map fst s.witnesses))

(* [explore]: every example and reproducer, every reproducer again on 3
   ranks at depth 10, [racy-ring] at depths 16 and 20, the first ten
   racy corpus programs at depth 4 and the shadowing program are
   explored breadth-first and by DPOR, one line each.  A line pins the
   per-class counts, [runs], [replays], [pruned] and the order in which
   the witness classes were first observed — counts and classes, not
   fingerprints, so the fingerprint encoding stays free to change, but a
   fingerprint change that merges or splits states moves [replays] and
   [pruned]. *)
let explore_lines () =
  List.concat_map
    (fun (name, p, nranks, branch_depth, budget) ->
      let config = explore_config nranks in
      [
        ( name ^ " (bfs)",
          explore_observe
            (Interp.Explore.outcomes ~branch_depth ~budget ~config p) );
        ( name ^ " (dpor)",
          explore_observe
            (Interp.Explore.outcomes_dpor ~branch_depth ~budget ~config p) );
      ])
    (Lazy.force explore_inputs)

(* ------------------------------------------------------------------ *)
(* Post-hoc overlay reports                                             *)
(* ------------------------------------------------------------------ *)

let overlay_ranks = 4

let overlay_config seed =
  {
    Interp.Sim.nranks = overlay_ranks;
    default_nthreads = 3;
    schedule = `Random seed;
    max_steps = 200_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* A binary tree, then the central (Marmot-like) overlay whose root
   serves every rank (the same tree below three ranks). *)
let overlay_fanouts nranks = if nranks <= 2 then [ 2 ] else [ 2; nranks ]

(* "class rounds R messages M md5" for one report; the MD5 covers the
   whole rendered report. *)
let overlay_line (r : Mustlike.Overlay.report) =
  Printf.sprintf "%s rounds %d messages %d %s"
    (match r.Mustlike.Overlay.verdict with
    | `Match _ -> "match"
    | `Divergence _ -> "divergence")
    r.Mustlike.Overlay.rounds r.Mustlike.Overlay.messages
    (Digest.to_hex
       (Digest.string (Mustlike.Overlay.report_to_string r)))

let overlay_event ?op ?root kind : Mpisim.Engine.trace_event =
  { signature = (kind, op, root); payload = 0; event_site = "<golden>" }

(* Hand-built traces for the overlay's edge cases. *)
let overlay_traces =
  let b = overlay_event Mpisim.Coll.Barrier in
  let bcast r = overlay_event ~root:r Mpisim.Coll.Bcast in
  let allred op = overlay_event ~op Mpisim.Coll.Allreduce in
  let red op r = overlay_event ~op ~root:r Mpisim.Coll.Reduce in
  let sum = Mpisim.Op.Sum and max_ = Mpisim.Op.Max in
  [
    ("traces/empty", [| []; []; [] |]);
    ("traces/one-rank", [| [ b; bcast 0; allred sum ] |]);
    ("traces/one-rank-empty", [| [] |]);
    ("traces/agree", Array.make 5 [ b; red sum 1; allred max_; b ]);
    ("traces/ragged-short", [| [ b; b ]; [ b; b ]; [ b ]; [ b; b ] |]);
    ("traces/ragged-empty", [| []; [ b ]; [ b ] |]);
    ("traces/ragged-long", [| [ b ]; [ b ]; [ b ]; [ b; bcast 2 ] |]);
    ( "traces/layer0-op",
      [| [ b; allred sum ]; [ b; allred max_ ]; [ b; allred sum ] |] );
    ( "traces/layer1-root",
      [|
        [ b; bcast 0 ]; [ b; bcast 0 ]; [ b; bcast 1 ]; [ b; bcast 1 ];
      |] );
    ( "traces/layer2-kind",
      Array.init 8 (fun r -> [ b; (if r < 4 then b else allred sum) ]) );
    ( "traces/three-groups",
      Array.init 7 (fun r ->
          [ b; (match r mod 3 with 0 -> b | 1 -> red sum 0 | _ -> red sum 2) ]) );
  ]

(* Every overlay input, as (name, fanout, traces), in a fixed order: the
   examples and small catalog programs under selective CC on
   [overlay_ranks] ranks × 3 threads at seeds 1–3, then the hand-built
   traces, each at every fanout of [overlay_fanouts]. *)
let overlay_inputs =
  lazy
    (let programs =
       List.map
         (fun f ->
           ("examples/" ^ f, Parser.parse_file (Filename.concat programs_dir f)))
         (example_files ())
       @ List.map
           (fun (e : Benchsuite.Catalog.entry) ->
             ("catalog/" ^ e.name, e.generate_small ()))
           Benchsuite.Catalog.all
     in
     let runs =
       List.concat_map
         (fun (name, p) ->
           let inst =
             Parcoach.Instrument.instrument (Parcoach.Driver.analyze p)
               Parcoach.Instrument.Selective
           in
           List.map
             (fun seed ->
               let r = Interp.Sim.run ~config:(overlay_config seed) inst in
               ( Printf.sprintf "%s+cc/seed%d" name seed,
                 Mpisim.Engine.all_traces r.Interp.Sim.engine ))
             [ 1; 2; 3 ])
         programs
     in
     List.concat_map
       (fun (name, traces) ->
         List.map
           (fun fanout -> (Printf.sprintf "%s/fanout%d" name fanout, fanout, traces))
           (overlay_fanouts (Array.length traces)))
       (runs @ overlay_traces))

(* [overlay]: every example and small catalog program under selective
   CC is run on 4 ranks × 3 threads at random seeds 1–3, and hand-built
   traces cover the edge cases (empty and ragged streams, one rank,
   divergences at layers 0–2).  Each trace set is checked at fanout 2
   and at the central fanout (one node over every rank) by the
   post-hoc [Mustlike.Overlay.check], whose report gives the line:
   verdict, rounds, messages and an MD5 of the rendered report.  The
   streaming [Mustlike.Stream] must build the same report; where it
   does not, a "(stream)" line follows and the diff fails (CI also
   refuses such a line in the pin file, so it cannot be promoted). *)
let overlay_lines () =
  List.concat_map
    (fun (name, fanout, traces) ->
      let posthoc = overlay_line (Mustlike.Overlay.check ~fanout traces) in
      let stream =
        overlay_line (fst (Test_stream.stream_traces ~fanout traces))
      in
      (name, posthoc)
      :: (if stream = posthoc then [] else [ (name ^ " (stream)", stream) ]))
    (Lazy.force overlay_inputs)

(* ------------------------------------------------------------------ *)
(* Request-free functions                                              *)
(* ------------------------------------------------------------------ *)

let request_free (f : Ast.func) =
  not
    (Ast.fold_stmts
       (fun acc (s : Ast.stmt) ->
         acc
         ||
         match s.Ast.sdesc with
         | Ast.Istart _ | Ast.Wait _ | Ast.Test _ -> true
         | _ -> false)
       false f.Ast.body)

(* Every field of a result, as one line. *)
let render_result (r : Parcoach.Requests.result) =
  Printf.sprintf "%d %d %d [%s] %s" r.nrequests r.nstarts
    (List.length r.findings)
    (String.concat ";" (List.map (fun (q, b) -> q ^ "=" ^ b) r.buffers))
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun s -> String.concat "," (Parcoach.Requests.SSet.elements s))
             r.inflight)))

(* "functions digest": the number of request-free functions of
   [programs] and the MD5 of their rendered results. *)
let request_free_pin programs =
  let lines =
    List.concat_map
      (fun (name, (p : Ast.program)) ->
        List.filter_map
          (fun (f : Ast.func) ->
            if not (request_free f) then None
            else
              let g = Cfg.Build.of_func f in
              let r =
                Parcoach.Requests.analyze
                  (Cfg.Actx.create ~params:f.Ast.params g)
                  ~taint_filter:true
              in
              Some (name ^ "/" ^ f.Ast.fname ^ ": " ^ render_result r))
          p.Ast.funcs)
      programs
  in
  Printf.sprintf "%d %s" (List.length lines) (md5 (String.concat "\n" lines))

let request_free_corpora =
  lazy
    (let examples =
       List.map
         (fun f -> (f, Parser.parse_file (Filename.concat programs_dir f)))
         (example_files ())
     in
     let catalog =
       List.concat_map
         (fun (e : Benchsuite.Catalog.entry) ->
           [
             (e.name ^ "/small", e.generate_small ());
             (e.name ^ "/figure1", e.generate ());
             (e.name ^ "/large", e.generate_large ());
           ])
         Benchsuite.Catalog.all
     in
     let farm =
       Farm.Pipeline.corpus
         { Farm.Pipeline.default_spec with Farm.Pipeline.families = 40 }
       |> Array.to_list
       |> List.map (fun (e : Farm.Pipeline.entry) ->
              (string_of_int e.Farm.Pipeline.id, e.Farm.Pipeline.program))
     in
     [ ("examples", examples); ("catalog", catalog); ("farm", farm) ])

(* [request-free]: what [Requests.analyze] returns on every
   request-free function of the examples, of the catalog at its three
   sizes and of a 240-program farm corpus, one line per corpus.  The
   pass skips its forward solve on such functions; the pins were
   recorded from the full solve, so the shortcut must give what the
   solve gave. *)
let request_free_lines () =
  List.map
    (fun (name, programs) -> (name, request_free_pin programs))
    (Lazy.force request_free_corpora)

(* ------------------------------------------------------------------ *)
(* Control-flow graphs                                                  *)
(* ------------------------------------------------------------------ *)

(* [cfg]: for every source input of the [reports] section (examples,
   reproducers, the catalog at its three sizes, the compile workload's
   mutants and the generated corpus), the MD5 of the DOT rendering of
   every function's CFG, in source order.  DOT lists each node's kind
   and each node's successors in order, so a change to the CFG builder
   or to the graph's adjacency that moves a node id, a node kind, an
   edge's order or a parallel edge moves a pin. *)
let cfg_lines () =
  List.map
    (fun (name, src) ->
      match
        Validate.catch_syntax_error (fun () -> Parser.parse_string ~file:name src)
      with
      | Error _ -> (name, "syntax-error")
      | Ok program ->
          ( name,
            md5
              (String.concat ""
                 (List.map Cfg.Dot.to_dot (Cfg.Build.of_program program))) ))
    (Lazy.force sources)

(* ------------------------------------------------------------------ *)
(* Daemon responses                                                     *)
(* ------------------------------------------------------------------ *)

let index_of ~sub s =
  let n = String.length s and k = String.length sub in
  let rec find i =
    if i + k > n then None
    else if String.sub s i k = sub then Some i
    else find (i + 1)
  in
  find 0

(* A response without its [timings] member, the one part that differs
   from run to run: a flat object the daemon writes last. *)
let drop_timings response =
  match index_of ~sub:",\"timings\":{" response with
  | None -> response
  | Some i ->
      let j = String.index_from response i '}' + 1 in
      String.sub response 0 i
      ^ String.sub response j (String.length response - j)

(* One [analyze] request line per (name, file, source), ids from 0, with
   the options perfbench's [serve] workload sends. *)
let analyze_lines requests =
  List.mapi
    (fun id (name, file, src) ->
      ( name,
        Serve.Json.to_string
          (Serve.Json.Obj
             [
               ("id", Serve.Json.Int id);
               ("method", Serve.Json.Str "analyze");
               ( "params",
                 Serve.Json.Obj
                   [
                     ("source", Serve.Json.Str src);
                     ("file", Serve.Json.Str file);
                     ("taint_filter", Serve.Json.Bool true);
                     ("interprocedural", Serve.Json.Bool true);
                     ("races", Serve.Json.Bool true);
                     ("requests", Serve.Json.Bool true);
                     ("jobs", Serve.Json.Int 1);
                   ] );
             ]) ))
    requests

(* An edit/layout/repeat session on two large catalog programs, the
   second under a file name that needs escaping: cold requests, an edit
   of [main], a layout-only edit, an identical repeat, a syntax error,
   a return to the first file and the daemon's stats. *)
let serve_session () =
  let source name =
    match Benchsuite.Catalog.find name with
    | Some e -> Pretty.program_to_string (e.generate_large ())
    | None -> failwith ("serve: no catalog entry " ^ name)
  in
  let edit n src =
    match index_of ~sub:"func main() {\n" src with
    | Some i ->
        let j = i + String.length "func main() {\n" in
        String.sub src 0 j
        ^ Printf.sprintf "  compute(%d);\n" n
        ^ String.sub src j (String.length src - j)
    | None -> failwith "serve: no main"
  in
  let bt = source "BT-MZ" and hera = source "HERA" in
  analyze_lines
    [
      ("bt/cold", "bt.hml", bt);
      ("bt/edit", "bt.hml", edit 1 bt);
      ("bt/layout", "bt.hml", "\n\n" ^ edit 1 bt);
      ("bt/repeat", "bt.hml", "\n\n" ^ edit 1 bt);
      ("hera/cold", "he\"ra\\\001\t.hml", hera);
      ("hera/edit", "he\"ra\\\001\t.hml", edit 2 hera);
      ("hera/syntax-error", "he\"ra\\\001\t.hml", edit 2 hera ^ "{");
      ("hera/layout", "he\"ra\\\001\t.hml", "\n" ^ edit 2 hera);
      ("bt/return", "bt.hml", edit 3 bt);
    ]
  @ [ ("stats", {|{"id":99,"method":"stats"}|}) ]

(* A call-graph session on the HERA and EPCC large programs, one file
   each: a body edit of a leaf callee (every transitive caller's summary
   key moves), a call added to another callee and removed again, the
   leaf renamed (call sites follow) and then deleted (call sites
   dropped), then HERA's last source again unchanged after EPCC's
   requests, and the daemon's stats. *)
let callgraph_session () =
  let program name =
    match Benchsuite.Catalog.find name with
    | Some e -> e.generate_large ()
    | None -> failwith ("serve: no catalog entry " ^ name)
  in
  let text p = Pretty.program_to_string p in
  let map_func name f (p : Ast.program) =
    {
      Ast.funcs =
        List.map
          (fun (g : Ast.func) -> if String.equal g.Ast.fname name then f g else g)
          p.Ast.funcs;
    }
  in
  (* Rewrites or drops every call to [name]. *)
  let map_calls name on_call (p : Ast.program) =
    {
      Ast.funcs =
        List.map
          (Ast.map_blocks
             (List.filter_map (fun (s : Ast.stmt) ->
                  match s.Ast.sdesc with
                  | Ast.Call (g, args) when String.equal g name ->
                      Option.map
                        (fun g -> { s with Ast.sdesc = Ast.Call (g, args) })
                        (on_call g)
                  | _ -> Some s)))
          p.Ast.funcs;
    }
  in
  let steps key file p =
    let callees = Parcoach.Callgraph.direct_callees in
    let called g =
      List.exists (fun f -> List.mem g.Ast.fname (callees f)) p.Ast.funcs
    in
    let leaves =
      List.filter (fun f -> callees f = [] && called f) p.Ast.funcs
    in
    (* A leaf whose caller is itself called, when there is one. *)
    let leaf =
      match
        List.find_opt
          (fun leaf ->
            List.exists
              (fun f -> List.mem leaf.Ast.fname (callees f) && called f)
              p.Ast.funcs)
          leaves
      with
      | Some f -> f
      | None -> List.hd leaves
    in
    let name = leaf.Ast.fname in
    let other =
      List.find (fun f -> called f && f.Ast.fname <> name) p.Ast.funcs
    in
    let edited =
      map_func name
        (fun f -> { f with Ast.body = Ast.mk (Ast.Coll (None, Ast.Barrier)) :: f.Ast.body })
        p
    in
    let call =
      Ast.mk
        (Ast.Call (name, List.map (fun _ -> Ast.Int 0) leaf.Ast.params))
    in
    let with_call =
      map_func other.Ast.fname
        (fun f -> { f with Ast.body = f.Ast.body @ [ call ] })
        edited
    in
    let renamed_name = name ^ "_renamed" in
    let renamed =
      map_calls name
        (fun _ -> Some renamed_name)
        (map_func name (fun f -> { f with Ast.fname = renamed_name }) edited)
    in
    let deleted =
      map_calls renamed_name
        (fun _ -> None)
        {
          Ast.funcs =
            List.filter
              (fun f -> f.Ast.fname <> renamed_name)
              renamed.Ast.funcs;
        }
    in
    ( List.map
        (fun (step, p) -> (key ^ "/" ^ step, file, text p))
        [
          ("cold", p);
          ("leaf-edit", edited);
          ("call-added", with_call);
          ("call-removed", edited);
          ("renamed", renamed);
          ("deleted", deleted);
        ],
      text deleted )
  in
  let hera, hera_last = steps "hera" "hera.hml" (program "HERA") in
  let epcc, _ = steps "epcc" "epcc.hml" (program "EPCC suite") in
  analyze_lines (hera @ epcc @ [ ("hera/again", "hera.hml", hera_last) ])
  @ [ ("stats", {|{"id":99,"method":"stats"}|}) ]

(* [serve]: the MD5 of every response line, [timings] removed, of
   [test/serve_smoke.jsonl] and of the two sessions above, each answered by
   a fresh daemon in process.  An encoder, decoder or daemon change
   that moves a response byte moves a pin. *)
let serve_lines () =
  let answer prefix lines =
    let daemon = Serve.Daemon.create () in
    List.map
      (fun (name, line) ->
        ( prefix ^ name,
          md5 (drop_timings (Serve.Daemon.handle_line daemon line)) ))
      lines
  in
  let smoke =
    String.split_on_char '\n' (read "serve_smoke.jsonl")
    |> List.filter (fun l -> String.trim l <> "")
    |> List.mapi (fun i l -> (string_of_int (i + 1), l))
  in
  answer "smoke/" smoke
  @ answer "session/" (serve_session ())
  @ answer "callgraph/" (callgraph_session ())

let suite =
  [
    ( "golden.probe",
      [
        Alcotest.test_case "a probe never steers a run" `Quick
          probe_neutrality;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("frontend", frontend_lines);
    ("reports", report_lines);
    ("schedules", schedule_lines);
    ("fingerprints", fingerprint_lines);
    ("explore", explore_lines);
    ("overlay", overlay_lines);
    ("request-free", request_free_lines);
    ("cfg", cfg_lines);
    ("serve", serve_lines);
  ]

(* Writes [section]'s lines, each "name<TAB>pin", to [file]. *)
let print section file =
  match List.assoc_opt section sections with
  | None ->
      Printf.eprintf "unknown golden section '%s' (known: %s)\n" section
        (String.concat ", " (List.map fst sections));
      exit 2
  | Some lines ->
      Out_channel.with_open_bin file (fun oc ->
          List.iter
            (fun (name, pin) -> Printf.fprintf oc "%s\t%s\n" name pin)
            (lines ()))

(** Equivalence of the two interpreter cores: the compiled slot-resolved
    core ([Sim.run] = [Sim.make] + [Sim.run_compiled]) must be
    observationally identical to the reference AST walker
    ([Sim.run_reference]) — same outcomes, print traces, step counts,
    spawned-task counts and per-step runnable counts, and, under a probe,
    the same number of recorded state fingerprints with bit-identical
    values.  Also pins the compile-time scoping rules
    (shadowing, privatized loop variables, function parameters) and the
    scheduler's scripted-choice indexing. *)

open Minilang

let mk = Ast.mk ~loc:Loc.none

let config ?(nranks = 2) ?(nthreads = 2) schedule =
  {
    Interp.Sim.nranks;
    default_nthreads = nthreads;
    schedule;
    max_steps = 200_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* Observables of one run: outcome, print trace, step count, tasks
   spawned, and the scheduler's runnable count at each recorded step. *)
let observe (r : Interp.Sim.result) =
  let s = r.Interp.Sim.stats in
  ( r.Interp.Sim.outcome,
    Interp.Sim.trace r,
    s.Interp.Sim.steps,
    s.Interp.Sim.tasks_spawned,
    Array.sub s.Interp.Sim.degrees 0 s.Interp.Sim.ndegrees )

let schedules =
  [
    `Round_robin;
    `Random 42;
    `Random 7;
    `Random 1337;
    `Scripted [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8 ];
  ]

(* Run both cores under every schedule and insist on identical
   observables; returns the compiled observables for further checks. *)
let both_agree ?nranks ?nthreads program =
  List.map
    (fun schedule ->
      let config = config ?nranks ?nthreads schedule in
      let reference = Interp.Sim.run_reference ~config program in
      let compiled = Interp.Sim.run ~config program in
      Alcotest.(check bool)
        "compiled = reference (outcome, trace, steps, spawns, degrees)" true
        (observe reference = observe compiled);
      observe compiled)
    schedules

(* ------------------------------------------------------------------ *)
(* Unit programs pinning the scoping rules                              *)
(* ------------------------------------------------------------------ *)

let test_shadowing () =
  (* An inner declaration shadows; leaving the block unshadows. *)
  let body =
    [
      mk (Ast.Decl ("x", Ast.Int 1));
      mk
        (Ast.If
           ( Ast.Int 1,
             [ mk (Ast.Decl ("x", Ast.Int 2)); mk (Ast.Print (Ast.Var "x")) ],
             [] ));
      mk (Ast.Print (Ast.Var "x"));
    ]
  in
  let program =
    Builder.number_lines
      { Ast.funcs = [ { Ast.fname = "main"; params = []; body; floc = Loc.none } ] }
  in
  let obs = both_agree ~nranks:1 program in
  let _, trace, _, _, _ = List.hd obs in
  Alcotest.(check (list (triple int int int)))
    "inner 2, outer 1" [ (0, 0, 2); (0, 0, 1) ] trace

let test_loop_privatization () =
  (* The worksharing loop variable is private to each iteration and does
     not leak into (or read from) an outer binding of the same name;
     reduction accumulators combine into the shared cell at chunk end. *)
  let body =
    [
      mk (Ast.Decl ("i", Ast.Int 100));
      mk (Ast.Decl ("s", Ast.Int 0));
      mk
        (Ast.Omp_parallel
           {
             num_threads = Some (Ast.Int 2);
             body =
               [
                 mk
                   (Ast.Omp_for
                      {
                        var = "i";
                        lo = Ast.Int 0;
                        hi = Ast.Int 5;
                        nowait = false;
                        reduction = Some (Ast.Rsum, "s");
                        body =
                          [
                            mk
                              (Ast.Assign
                                 ( "s",
                                   Ast.Binop (Ast.Add, Ast.Var "s", Ast.Var "i")
                                 ));
                          ];
                      });
               ];
           });
      mk (Ast.Print (Ast.Var "i"));
      mk (Ast.Print (Ast.Var "s"));
    ]
  in
  let program =
    Builder.number_lines
      { Ast.funcs = [ { Ast.fname = "main"; params = []; body; floc = Loc.none } ] }
  in
  let obs = both_agree ~nranks:1 program in
  let _, trace, _, _, _ = List.hd obs in
  Alcotest.(check (list (triple int int int)))
    "outer i untouched, reduction = 0+1+2+3+4"
    [ (0, 0, 100); (0, 0, 10) ]
    trace

let test_function_params () =
  (* Parameters land in callee-frame slots; recursion re-enters the
     (mutable) compiled body; [return] unwinds to the call marker. *)
  let countdown =
    {
      Ast.fname = "countdown";
      params = [ "n" ];
      body =
        [
          mk
            (Ast.If
               ( Ast.Binop (Ast.Le, Ast.Var "n", Ast.Int 0),
                 [ mk Ast.Return ],
                 [] ));
          mk (Ast.Print (Ast.Var "n"));
          mk (Ast.Call ("countdown", [ Ast.Binop (Ast.Sub, Ast.Var "n", Ast.Int 1) ]));
        ];
      floc = Loc.none;
    }
  in
  let add =
    {
      Ast.fname = "add";
      params = [ "a"; "b" ];
      body = [ mk (Ast.Print (Ast.Binop (Ast.Add, Ast.Var "a", Ast.Var "b"))) ];
      floc = Loc.none;
    }
  in
  let main =
    {
      Ast.fname = "main";
      params = [];
      body =
        [
          mk (Ast.Call ("countdown", [ Ast.Int 3 ]));
          mk (Ast.Call ("add", [ Ast.Int 2; Ast.Int 40 ]));
        ];
      floc = Loc.none;
    }
  in
  let program = Builder.number_lines { Ast.funcs = [ main; countdown; add ] } in
  let obs = both_agree ~nranks:1 program in
  let _, trace, _, _, _ = List.hd obs in
  Alcotest.(check (list (triple int int int)))
    "3 2 1 then 42"
    [ (0, 0, 3); (0, 0, 2); (0, 0, 1); (0, 0, 42) ]
    trace

let test_scripted_indexing () =
  (* Scripted choices index runnable tasks as ((choice mod n) + n) mod n:
     negative and out-of-range scripts must replay identically on both
     cores. *)
  let body =
    [
      mk
        (Ast.Omp_parallel
           {
             num_threads = Some (Ast.Int 3);
             body = [ mk (Ast.Print Ast.Tid) ];
           });
    ]
  in
  let program =
    Builder.number_lines
      { Ast.funcs = [ { Ast.fname = "main"; params = []; body; floc = Loc.none } ] }
  in
  List.iter
    (fun script ->
      let config = config ~nranks:1 (`Scripted script) in
      let reference = Interp.Sim.run_reference ~config program in
      let compiled = Interp.Sim.run ~config program in
      Alcotest.(check bool)
        "identical observables under hostile scripts" true
        (observe reference = observe compiled))
    [
      [ -7; 13; -2; 5; 0 ];
      [ 1_000_000; -1_000_000; 3; -1 ];
      [ min_int + 1; max_int ];
    ]

(* ------------------------------------------------------------------ *)
(* Fingerprint parity on the reproducer catalogue                       *)
(* ------------------------------------------------------------------ *)

(* Run both cores under a [depth]-step probe: identical observables and
   bit-identical recorded fingerprints.  Returns the compiled result. *)
let probe_parity name ~depth ~config program =
  let ids = Interp.Sim.stmt_ids program in
  let pr = Interp.Sim.make_probe ~depth ~ids in
  let pc = Interp.Sim.make_probe ~depth ~ids in
  let reference = Interp.Sim.run_reference ~config ~probe:pr program in
  let compiled = Interp.Sim.run ~config ~probe:pc program in
  Alcotest.(check bool)
    (name ^ ": observables") true
    (observe reference = observe compiled);
  Alcotest.(check int)
    (name ^ ": recorded depth")
    (Interp.Sim.probe_recorded pr)
    (Interp.Sim.probe_recorded pc);
  for k = 0 to Interp.Sim.probe_recorded pr - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: fingerprint %d" name k)
      (Interp.Sim.probe_fingerprint pr k)
      (Interp.Sim.probe_fingerprint pc k)
  done;
  compiled

let test_reproducer_fingerprints () =
  List.iter
    (fun entry ->
      let name = entry.Benchsuite.Reproducers.name in
      let program = Benchsuite.Reproducers.program entry in
      List.iter
        (fun schedule ->
          ignore
            (probe_parity name ~depth:12
               ~config:(config ~nranks:3 ~nthreads:2 schedule)
               program))
        [
          `Round_robin;
          `Random 42;
          `Random 7;
          `Random 1337;
          `Scripted [ 2; 0; 1; 2; 1; 0; 2 ];
        ];
      (* The exploration summary is built from the same fingerprints. *)
      let explore interp =
        Interp.Explore.summary_to_string
          (Interp.Explore.outcomes ~branch_depth:10 ~budget:100_000 ~interp
             ~config:
               {
                 (config ~nranks:3 ~nthreads:2 `Round_robin) with
                 Interp.Sim.record_trace = false;
               }
             program)
      in
      Alcotest.(check string)
        (name ^ ": exploration summary")
        (explore `Reference) (explore `Compiled))
    Benchsuite.Reproducers.all

(* ------------------------------------------------------------------ *)
(* Spawn-heavy programs: the scheduler's live-task list                 *)
(* ------------------------------------------------------------------ *)

(* 210 sequential parallel regions per rank (each spawns its three
   threads), so finished threads pile up around tasks that are still
   alive: inside a region thread 1 blocks in [MPI_Recv] on the previous
   rank, between regions the rank's main task blocks in [MPI_Wait].
   [tail] runs after the loop. *)
let spawn_heavy tail =
  Parser.parse_string ~file:"spawn_heavy"
    (Printf.sprintf
       {|func main() {
  var x = 0;
  var next = (rank() + 1) %% size();
  var prev = (rank() + size() - 1) %% size();
  for i = 0 to 210 {
    pragma omp parallel num_threads(3) {
      pragma omp critical {
        x = x + omp_tid();
      }
      pragma omp barrier;
      if (omp_tid() == 1) {
        var y = 0;
        y = MPI_Recv(prev, i);
        pragma omp critical {
          x = x + y;
        }
      }
      pragma omp single nowait {
        MPI_Send(x, next, i);
      }
    }
    var b = 0;
    var r = 0;
    r = MPI_Irecv(b, prev, 1000 + i);
    MPI_Send(i, next, 1000 + i);
    MPI_Wait(r);
    x = x + b;
  }
  %s
}|}
       tail)

let test_spawn_heavy () =
  let check name program =
    List.iter
      (fun schedule ->
        let compiled =
          probe_parity name ~depth:1000 ~config:(config ~nranks:2 schedule)
            program
        in
        Alcotest.(check bool)
          (name ^ ": spawns beyond the 200th region") true
          (compiled.Interp.Sim.stats.Interp.Sim.tasks_spawned > 2 * 3 * 200))
      schedules
  in
  let finishing = spawn_heavy "print(x);" in
  check "finishing" finishing;
  (* A last region whose thread 1 waits for a message nobody sends: the
     deadlock report lists, per rank, the joining parent and thread 1,
     which sit among hundreds of finished tasks. *)
  let deadlocking =
    spawn_heavy
      {|pragma omp parallel num_threads(3) {
    if (omp_tid() == 1) {
      var z = 0;
      z = MPI_Recv(prev, 99999);
    }
  }|}
  in
  check "deadlocking" deadlocking;
  let outcome program =
    (Interp.Sim.run ~config:(config ~nranks:2 `Round_robin) program)
      .Interp.Sim.outcome
  in
  Alcotest.(check bool)
    "finishing program finishes" true
    (outcome finishing = Interp.Sim.Finished);
  Alcotest.(check bool)
    "deadlocking program deadlocks" true
    (match outcome deadlocking with
    | Interp.Sim.Deadlock blocked -> List.length blocked = 4
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Properties over the random program generators                        *)
(* ------------------------------------------------------------------ *)

(* Realize the final shared-variable values as observables: printing
   x0..x3 at the end of main folds the final environment into the trace,
   so trace equality also checks final stores. *)
let with_final_prints (p : Ast.program) =
  let prints =
    List.map (fun v -> mk (Ast.Print (Ast.Var v))) Test_qcheck.shared_vars
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

let properties =
  let open QCheck in
  [
    Test.make
      ~name:"compiled = reference on deterministic programs (incl. final env)"
      ~count:40 Test_qcheck.arb_program (fun p ->
        let p = with_final_prints p in
        List.for_all
          (fun schedule ->
            let config = config schedule in
            observe (Interp.Sim.run_reference ~config p)
            = observe (Interp.Sim.run ~config p))
          schedules);
    Test.make
      ~name:"compiled = reference on racy programs (outcome, trace, fingerprints)"
      ~count:25 Test_qcheck.arb_racy_program (fun p ->
        let ids = Interp.Sim.stmt_ids p in
        let depth = 10 in
        List.for_all
          (fun schedule ->
            let config = config schedule in
            let pr = Interp.Sim.make_probe ~depth ~ids in
            let pc = Interp.Sim.make_probe ~depth ~ids in
            let reference = Interp.Sim.run_reference ~config ~probe:pr p in
            let compiled = Interp.Sim.run ~config ~probe:pc p in
            observe reference = observe compiled
            && Interp.Sim.probe_recorded pr = Interp.Sim.probe_recorded pc
            && List.for_all
                 (fun k ->
                   Interp.Sim.probe_fingerprint pr k
                   = Interp.Sim.probe_fingerprint pc k)
                 (List.init (Interp.Sim.probe_recorded pr) Fun.id))
          schedules);
    Test.make
      ~name:"compiled exploration = reference exploration (racy programs)"
      ~count:10 Test_qcheck.arb_racy_program (fun p ->
        let config =
          {
            (config `Round_robin) with
            Interp.Sim.record_trace = false;
            max_steps = 50_000;
          }
        in
        let branch_depth = 4 and budget = 20_000 in
        String.equal
          (Interp.Explore.summary_to_string
             (Interp.Explore.outcomes ~branch_depth ~budget ~interp:`Compiled
                ~config p))
          (Interp.Explore.summary_to_string
             (Interp.Explore.outcomes ~branch_depth ~budget ~interp:`Reference
                ~config p)));
  ]

let suite =
  [
    ( "compile.scoping",
      [
        Alcotest.test_case "shadowing in nested blocks" `Quick test_shadowing;
        Alcotest.test_case "privatized loop variable and reduction" `Quick
          test_loop_privatization;
        Alcotest.test_case "function parameters, recursion, return" `Quick
          test_function_params;
        Alcotest.test_case "scripted-choice indexing is unchanged" `Quick
          test_scripted_indexing;
      ] );
    ( "compile.fingerprints",
      [
        Alcotest.test_case "reproducer catalogue parity" `Quick
          test_reproducer_fingerprints;
      ] );
    ( "compile.scheduler",
      [
        Alcotest.test_case "spawn-heavy programs under every schedule" `Quick
          test_spawn_heavy;
      ] );
    ("compile.equivalence", List.map QCheck_alcotest.to_alcotest properties);
  ]

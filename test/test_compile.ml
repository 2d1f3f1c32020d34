(** The compiled interpreter's scoping rules (shadowing, privatized loop
    variables, function parameters), the scheduler's scripted-choice
    indexing and its live-task list under spawn-heavy programs.  The
    runs these programs make are pinned in [golden.schedules]. *)

open Minilang

let mk = Ast.mk ~loc:Loc.none

let config ?(nranks = 2) schedule =
  {
    Interp.Sim.nranks;
    default_nthreads = 2;
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

(* The print trace of [program] on one rank under every schedule. *)
let check_traces name expected program =
  List.iter
    (fun schedule ->
      Alcotest.(check (list (triple int int int)))
        name expected
        (Interp.Sim.trace
           (Interp.Sim.run ~config:(config ~nranks:1 schedule) program)))
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
  check_traces "inner 2, outer 1" [ (0, 0, 2); (0, 0, 1) ] program

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
  check_traces "outer i untouched, reduction = 0+1+2+3+4"
    [ (0, 0, 100); (0, 0, 10) ]
    program

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
  check_traces "3 2 1 then 42"
    [ (0, 0, 3); (0, 0, 2); (0, 0, 1); (0, 0, 42) ]
    program

(* One rank forking three threads that print their ids, and scripts whose
   choices are negative or far out of range. *)
let scripted_program =
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
  Builder.number_lines
    { Ast.funcs = [ { Ast.fname = "main"; params = []; body; floc = Loc.none } ] }

let hostile_scripts =
  [
    [ -7; 13; -2; 5; 0 ];
    [ 1_000_000; -1_000_000; 3; -1 ];
    [ min_int + 1; max_int ];
  ]

let test_scripted_indexing () =
  (* Scripted choices index runnable tasks as ((choice mod n) + n) mod n:
     a hostile script replays exactly like the script of those in-range
     indices, read off the runnable counts the run recorded. *)
  List.iter
    (fun script ->
      let run script =
        Interp.Sim.run ~config:(config ~nranks:1 (`Scripted script))
          scripted_program
      in
      let hostile = run script in
      let degrees = hostile.Interp.Sim.stats.Interp.Sim.degrees in
      let in_range =
        List.mapi (fun k c -> ((c mod degrees.(k)) + degrees.(k)) mod degrees.(k)) script
      in
      Alcotest.(check bool)
        "hostile script = its in-range script" true
        (observe hostile = observe (run in_range)))
    hostile_scripts

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

(* A last region whose thread 1 waits for a message nobody sends. *)
let spawn_heavy_deadlock =
  spawn_heavy
    {|pragma omp parallel num_threads(3) {
    if (omp_tid() == 1) {
      var z = 0;
      z = MPI_Recv(prev, 99999);
    }
  }|}

let test_spawn_heavy () =
  let check name program =
    List.iter
      (fun schedule ->
        let compiled =
          Interp.Sim.run ~config:(config ~nranks:2 schedule) program
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
  let deadlocking = spawn_heavy_deadlock in
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
    ( "compile.scheduler",
      [
        Alcotest.test_case "spawn-heavy programs under every schedule" `Quick
          test_spawn_heavy;
      ] );
  ]

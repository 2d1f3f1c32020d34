(** Tests for the hybrid execution simulator: sequential semantics, OpenMP
    construct behaviour, MPI collective data flow, error and deadlock
    detection, scheduling determinism. *)

open Interp

let parse src = Minilang.Parser.parse_string ~file:"test" src

let config ?(nranks = 2) ?(threads = 2) ?(seed = 42) ?(max_steps = 500_000) () =
  {
    Sim.nranks;
    default_nthreads = threads;
    schedule = `Random seed;
    max_steps;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

let run ?nranks ?threads ?seed ?max_steps src =
  Sim.run ~config:(config ?nranks ?threads ?seed ?max_steps ()) (parse src)

(* Values printed by rank 0, in order. *)
let rank0_prints result =
  List.filter_map
    (fun (rank, _, v) -> if rank = 0 then Some v else None)
    (Sim.trace result)

let expect_finished name ?nranks ?threads src checks =
  Alcotest.test_case name `Quick (fun () ->
      let result = run ?nranks ?threads src in
      (match result.Sim.outcome with
      | Sim.Finished -> ()
      | o -> Alcotest.failf "expected finish, got: %s" (Sim.outcome_to_string o));
      checks result)

let seq_tests =
  [
    expect_finished "arithmetic and control flow" ~nranks:1
      {|func main() {
         var x = 0;
         for i = 0 to 5 { x = x + i; }
         if (x == 10) { print(x); } else { print(0 - 1); }
         var y = 20;
         while (y > 15) { y = y - 2; }
         print(y);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "prints" [ 10; 14 ] (rank0_prints result));
    expect_finished "procedure calls with by-value parameters" ~nranks:1
      {|func double(n) { print(n * 2); }
        func main() { var a = 3; double(a); double(a + 1); print(a); }|}
      (fun result ->
        Alcotest.(check (list int)) "prints" [ 6; 8; 3 ] (rank0_prints result));
    expect_finished "return exits the current function only" ~nranks:1
      {|func f(n) { if (n > 0) { print(1); return; } print(2); }
        func main() { f(1); print(3); }|}
      (fun result ->
        Alcotest.(check (list int)) "prints" [ 1; 3 ] (rank0_prints result));
    expect_finished "recursion" ~nranks:1
      {|func count(n) { if (n == 0) { return; } print(n); count(n - 1); }
        func main() { count(3); }|}
      (fun result ->
        Alcotest.(check (list int)) "prints" [ 3; 2; 1 ] (rank0_prints result));
    expect_finished "shadowing in blocks" ~nranks:1
      {|func main() { var x = 1; if (true) { var x = 2; print(x); } print(x); }|}
      (fun result ->
        Alcotest.(check (list int)) "prints" [ 2; 1 ] (rank0_prints result));
    Alcotest.test_case "division by zero is a fault" `Quick (fun () ->
        let result = run ~nranks:1 "func main() { var x = 1 / 0; }" in
        match result.Sim.outcome with
        | Sim.Fault (Sim.Eval_error _) -> ()
        | o -> Alcotest.failf "expected eval fault, got %s" (Sim.outcome_to_string o));
    Alcotest.test_case "while-condition errors report the loop's site" `Quick
      (fun () ->
        (* The first evaluation, then a re-evaluation at the loop back. *)
        List.iter
          (fun (src, expected) ->
            let result = run ~nranks:1 src in
            Alcotest.(check string)
              "outcome" expected
              (Sim.outcome_to_string result.Sim.outcome))
          [
            ( "func main() {\n  var x = 0;\n  while (1 / x > 0) { x = x + 1; }\n}",
              "runtime fault: evaluation error on rank 0 at test:3:3: division \
               by zero" );
            ( "func main() {\n  var x = 2;\n\n\
              \  while (4 % x == 0) { x = x - 1; x = x - 1; }\n}",
              "runtime fault: evaluation error on rank 0 at test:4:3: modulo by \
               zero" );
          ]);
    Alcotest.test_case "step limit triggers on infinite loop" `Quick (fun () ->
        let result =
          run ~nranks:1 ~max_steps:1000 "func main() { while (true) { compute(1); } }"
        in
        Alcotest.(check bool) "limit" true (result.Sim.outcome = Sim.Step_limit));
  ]

let omp_tests =
  [
    expect_finished "parallel shares variables" ~nranks:1 ~threads:4
      {|func main() {
         var hits = 0;
         pragma omp parallel num_threads(4) {
           pragma omp critical { hits = hits + 1; }
         }
         print(hits);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "all threads counted" [ 4 ] (rank0_prints result));
    expect_finished "single executes exactly once per team" ~nranks:1 ~threads:4
      {|func main() {
         var n = 0;
         pragma omp parallel num_threads(4) {
           pragma omp single { n = n + 1; }
           pragma omp single { n = n + 10; }
         }
         print(n);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "one + ten" [ 11 ] (rank0_prints result));
    expect_finished "single inside a loop executes once per iteration" ~nranks:1
      ~threads:3
      {|func main() {
         var n = 0;
         pragma omp parallel num_threads(3) {
           pragma omp for it = 0 to 3 { compute(1); }
           pragma omp single { n = n + 1; }
         }
         for k = 0 to 3 {
           pragma omp parallel num_threads(3) {
             pragma omp single { n = n + 1; }
           }
         }
         print(n);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "four dynamic instances" [ 4 ] (rank0_prints result));
    expect_finished "master runs on thread 0 only" ~nranks:1 ~threads:4
      {|func main() {
         var n = 0;
         pragma omp parallel num_threads(4) {
           pragma omp master { n = n + 1 + omp_tid(); }
         }
         print(n);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "tid 0 only" [ 1 ] (rank0_prints result));
    expect_finished "worksharing for covers all iterations once" ~nranks:1
      ~threads:3
      {|func main() {
         var sum = 0;
         pragma omp parallel num_threads(3) {
           pragma omp for i = 0 to 10 {
             pragma omp critical { sum = sum + i; }
           }
         }
         print(sum);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "0+..+9" [ 45 ] (rank0_prints result));
    expect_finished "sections distribute across threads" ~nranks:1 ~threads:2
      {|func main() {
         var acc = 0;
         pragma omp parallel num_threads(2) {
           pragma omp sections {
             section { pragma omp critical { acc = acc + 1; } }
             section { pragma omp critical { acc = acc + 10; } }
             section { pragma omp critical { acc = acc + 100; } }
           }
         }
         print(acc);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "all sections ran" [ 111 ] (rank0_prints result));
    expect_finished "barrier orders phases" ~nranks:1 ~threads:4
      {|func main() {
         var a = 0;
         var b = 0;
         pragma omp parallel num_threads(4) {
           pragma omp critical { a = a + 1; }
           pragma omp barrier;
           pragma omp single { b = a; }
         }
         print(b);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "all arrived before read" [ 4 ] (rank0_prints result));
    expect_finished "nested parallelism multiplies threads" ~nranks:1 ~threads:2
      {|func main() {
         var n = 0;
         pragma omp parallel num_threads(2) {
           pragma omp parallel num_threads(2) {
             pragma omp critical { n = n + 1; }
           }
         }
         print(n);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "2*2 threads" [ 4 ] (rank0_prints result));
    expect_finished "omp constructs outside parallel degrade gracefully"
      ~nranks:1 ~threads:1
      {|func main() {
         var n = 0;
         pragma omp single { n = n + 1; }
         pragma omp master { n = n + 10; }
         pragma omp critical { n = n + 100; }
         pragma omp barrier;
         pragma omp for i = 0 to 3 { n = n + 1000; }
         print(n);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "sequential semantics" [ 3111 ] (rank0_prints result));
    expect_finished "omp_tid and omp_nthreads" ~nranks:1 ~threads:3
      {|func main() {
         var tids = 0;
         pragma omp parallel num_threads(3) {
           pragma omp critical { tids = tids + omp_tid() * 10 + omp_nthreads(); }
         }
         print(tids);
       }|}
      (fun result ->
        (* (0+1+2)*10 + 3*3 = 39 *)
        Alcotest.(check (list int)) "sum" [ 39 ] (rank0_prints result));
    expect_finished "reduction clause accumulates across threads" ~nranks:1
      ~threads:3
      {|func main() {
         var total = 0;
         pragma omp parallel num_threads(3) {
           pragma omp for i = 0 to 10 reduction(sum: total) {
             total = total + i;
           }
         }
         print(total);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "0+..+9" [ 45 ] (rank0_prints result));
    expect_finished "max reduction" ~nranks:1 ~threads:4
      {|func main() {
         var best = 0 - 100;
         pragma omp parallel num_threads(4) {
           pragma omp for i = 0 to 7 reduction(max: best) {
             best = i * (10 - i);
           }
         }
         print(best);
       }|}
      (fun result ->
        (* Each thread's chunk keeps only its last write; the max over
           chunks of i*(10-i) for i in 0..6 with 4 threads (chunks
           {0,1},{2,3},{4,5},{6}) is max(9, 21, 25, 24) = 25. *)
        Alcotest.(check (list int)) "max" [ 25 ] (rank0_prints result));
    expect_finished "reduction outside parallel is sequential" ~nranks:1
      ~threads:1
      {|func main() {
         var total = 100;
         pragma omp for i = 0 to 4 reduction(sum: total) {
           total = total + 1;
         }
         print(total);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "100+4" [ 104 ] (rank0_prints result));
    expect_finished "private loop variable per thread" ~nranks:1 ~threads:4
      {|func main() {
         var acc = 0;
         pragma omp parallel num_threads(4) {
           pragma omp for i = 0 to 8 {
             pragma omp critical { acc = acc + i * 0 + 1; }
           }
         }
         print(acc);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "8 iterations" [ 8 ] (rank0_prints result));
  ]

let edge_tests =
  [
    expect_finished "collective in nested parallel-single-parallel-single"
      ~nranks:2 ~threads:2
      {|func main() {
         var x = 0;
         pragma omp parallel num_threads(2) {
           pragma omp single {
             pragma omp parallel num_threads(2) {
               pragma omp single { x = MPI_Allreduce(1, sum); }
             }
           }
         }
         print(x);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "one contribution per rank" [ 2 ]
          (rank0_prints result));
    expect_finished "empty parallel body" ~nranks:1 ~threads:3
      "func main() { pragma omp parallel { } print(7); }"
      (fun result ->
        Alcotest.(check (list int)) "prints" [ 7 ] (rank0_prints result));
    expect_finished "single-thread team degrades to sequential" ~nranks:1
      ~threads:1
      {|func main() {
         var n = 0;
         pragma omp parallel num_threads(1) {
           pragma omp single { n = n + 1; }
           pragma omp barrier;
           pragma omp master { n = n + 10; }
         }
         print(n);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "prints" [ 11 ] (rank0_prints result));
    Alcotest.test_case "barrier under divergent control flow deadlocks" `Quick
      (fun () ->
        let result =
          run ~nranks:1 ~threads:2
            {|func main() { pragma omp parallel num_threads(2) {
               if (omp_tid() == 0) { pragma omp barrier; } } }|}
        in
        match result.Sim.outcome with
        | Sim.Deadlock _ -> ()
        | o -> Alcotest.failf "expected deadlock, got %s" (Sim.outcome_to_string o));
    Alcotest.test_case "non-positive num_threads is a fault" `Quick (fun () ->
        let result =
          run ~nranks:1 "func main() { pragma omp parallel num_threads(0) { } }"
        in
        match result.Sim.outcome with
        | Sim.Fault (Sim.Eval_error _) -> ()
        | o -> Alcotest.failf "expected fault, got %s" (Sim.outcome_to_string o));
    expect_finished "sections with more sections than threads" ~nranks:1
      ~threads:2
      {|func main() {
         var acc = 0;
         pragma omp parallel num_threads(2) {
           pragma omp sections {
             section { pragma omp critical { acc = acc + 1; } }
             section { pragma omp critical { acc = acc + 2; } }
             section { pragma omp critical { acc = acc + 4; } }
             section { pragma omp critical { acc = acc + 8; } }
             section { pragma omp critical { acc = acc + 16; } }
           }
         }
         print(acc);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "all sections" [ 31 ] (rank0_prints result));
    expect_finished "worksharing loop with empty range" ~nranks:1 ~threads:3
      {|func main() {
         var n = 0;
         pragma omp parallel num_threads(3) {
           pragma omp for i = 5 to 5 { n = n + 1; }
         }
         print(n);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "no iterations" [ 0 ] (rank0_prints result));
  ]

let mpi_tests =
  [
    expect_finished "allreduce sums contributions" ~nranks:3
      {|func main() { var x = 0; x = MPI_Allreduce(rank() + 1, sum);
         if (rank() == 0) { print(x); } }|}
      (fun result ->
        Alcotest.(check (list int)) "1+2+3" [ 6 ] (rank0_prints result));
    expect_finished "bcast delivers the root value" ~nranks:3
      {|func main() { var x = 0; x = MPI_Bcast(rank() * 100, 2); print(x); }|}
      (fun result ->
        Alcotest.(check (list int)) "root payload" [ 200 ] (rank0_prints result));
    expect_finished "reduce only at root" ~nranks:2
      {|func main() { var x = 0; x = MPI_Reduce(5, sum, 1); print(x); }|}
      (fun result ->
        Alcotest.(check (list int)) "non-root gets 0" [ 0 ] (rank0_prints result));
    expect_finished "scan prefix" ~nranks:3
      {|func main() { var x = 0; x = MPI_Scan(rank() + 1, sum); print(x); }|}
      (fun result ->
        Alcotest.(check (list int)) "rank 0 prefix" [ 1 ] (rank0_prints result));
    expect_finished "collectives from single regions" ~nranks:2 ~threads:3
      {|func main() {
         var x = 0;
         pragma omp parallel num_threads(3) {
           pragma omp single { x = MPI_Allreduce(1, sum); }
         }
         print(x);
       }|}
      (fun result ->
        Alcotest.(check (list int)) "one contribution per rank" [ 2 ]
          (rank0_prints result));
    Alcotest.test_case "rank-divergent collective deadlocks or faults" `Quick
      (fun () ->
        let result =
          run ~nranks:2 "func main() { if (rank() == 0) { MPI_Barrier(); } }"
        in
        match result.Sim.outcome with
        | Sim.Deadlock _ -> ()
        | o -> Alcotest.failf "expected deadlock, got %s" (Sim.outcome_to_string o));
    Alcotest.test_case "mismatched kinds fault at the rendezvous" `Quick
      (fun () ->
        let result =
          run ~nranks:2
            {|func main() { if (rank() == 0) { MPI_Barrier(); } else { MPI_Allgather(1); } }|}
        in
        match result.Sim.outcome with
        | Sim.Fault (Sim.Mismatch _) -> ()
        | o -> Alcotest.failf "expected mismatch, got %s" (Sim.outcome_to_string o));
    Alcotest.test_case "collective in parallel region faults (same rank twice)"
      `Quick (fun () ->
        let result =
          run ~nranks:2 ~threads:2
            "func main() { pragma omp parallel { MPI_Barrier(); } }"
        in
        match result.Sim.outcome with
        | Sim.Fault (Sim.Concurrent_collective _) -> ()
        | Sim.Finished ->
            (* With some interleavings both barriers can complete in
               sequence; accept but note it. *)
            ()
        | o -> Alcotest.failf "unexpected outcome %s" (Sim.outcome_to_string o));
    Alcotest.test_case "root out of range is a fault" `Quick (fun () ->
        let result = run ~nranks:2 "func main() { MPI_Bcast(1, 9); }" in
        match result.Sim.outcome with
        | Sim.Fault (Sim.Eval_error _) -> ()
        | o -> Alcotest.failf "expected fault, got %s" (Sim.outcome_to_string o));
    Alcotest.test_case "deadlock diagnostics name blocked tasks" `Quick
      (fun () ->
        let result =
          run ~nranks:2 "func main() { if (rank() == 0) { MPI_Barrier(); } }"
        in
        match result.Sim.outcome with
        | Sim.Deadlock blocked ->
            Alcotest.(check bool) "mentions MPI_Barrier" true
              (List.exists
                 (fun s ->
                   let rec has i =
                     i + 11 <= String.length s
                     && (String.sub s i 11 = "MPI_Barrier" || has (i + 1))
                   in
                   has 0)
                 blocked)
        | o -> Alcotest.failf "expected deadlock, got %s" (Sim.outcome_to_string o));
  ]

let check_tests =
  [
    expect_finished "counter checks pass when regions are serialized" ~nranks:1
      ~threads:2
      {|func main() {
         pragma omp parallel num_threads(2) {
           pragma omp single { __count_enter(1); compute(1); __count_exit(1); }
         }
       }|}
      (fun _ -> ());
    Alcotest.test_case "counter check aborts on overlap" `Quick (fun () ->
        (* Both threads enter the counted region (no single). *)
        let result =
          run ~nranks:1 ~threads:2
            {|func main() {
               pragma omp parallel num_threads(2) {
                 __count_enter(1); compute(5); __count_exit(1);
               }
             }|}
        in
        match result.Sim.outcome with
        | Sim.Aborted (Sim.Concurrent_region _) -> ()
        | Sim.Finished -> () (* possible if the scheduler serialised them *)
        | o -> Alcotest.failf "unexpected %s" (Sim.outcome_to_string o));
    Alcotest.test_case "assert_monothread aborts in a team" `Quick (fun () ->
        let result =
          run ~nranks:1 ~threads:2
            {|func main() { pragma omp parallel num_threads(2) { __assert_monothread(0); } }|}
        in
        match result.Sim.outcome with
        | Sim.Aborted (Sim.Multithreaded_region _) -> ()
        | o -> Alcotest.failf "expected abort, got %s" (Sim.outcome_to_string o));
    expect_finished "assert_monothread passes inside single" ~nranks:1 ~threads:2
      {|func main() { pragma omp parallel num_threads(2) {
          pragma omp single { __assert_monothread(0); } } }|}
      (fun _ -> ());
    Alcotest.test_case "cc divergence aborts cleanly" `Quick (fun () ->
        let result =
          run ~nranks:2
            {|func main() {
               if (rank() == 0) { __cc_next(1, "MPI_Barrier"); MPI_Barrier(); }
               else { __cc_return(); }
             }|}
        in
        match result.Sim.outcome with
        | Sim.Aborted (Sim.Cc_divergence _) -> ()
        | o -> Alcotest.failf "expected CC abort, got %s" (Sim.outcome_to_string o));
    expect_finished "cc agreement lets the program proceed" ~nranks:2
      {|func main() { __cc_next(1, "MPI_Barrier"); MPI_Barrier(); __cc_return(); }|}
      (fun result ->
        Alcotest.(check int) "two cc rendezvous" 2
          (Mpisim.Engine.cc_check_count result.Sim.engine));
  ]

let level_tests =
  let run_at level src =
    let cfg = { (config ~nranks:2 ~threads:2 ()) with Sim.thread_level = level } in
    Sim.run ~config:cfg (parse src)
  in
  let serialized_src =
    {|func main() { pragma omp parallel num_threads(2) {
       pragma omp single { MPI_Barrier(); } } }|}
  in
  [
    Alcotest.test_case "single-region collective ok at SERIALIZED" `Quick
      (fun () ->
        Alcotest.(check bool) "finishes" true
          (Sim.is_finished (run_at Mpisim.Thread_level.Serialized serialized_src)));
    Alcotest.test_case "single-region collective rejected at FUNNELED" `Quick
      (fun () ->
        match (run_at Mpisim.Thread_level.Funneled serialized_src).Sim.outcome with
        | Sim.Fault (Sim.Level_violation { required; _ }) ->
            Alcotest.(check bool) "requires serialized" true
              (required = Mpisim.Thread_level.Serialized)
        | o -> Alcotest.failf "expected level violation, got %s" (Sim.outcome_to_string o));
    Alcotest.test_case "top-level collective ok at SINGLE" `Quick (fun () ->
        Alcotest.(check bool) "finishes" true
          (Sim.is_finished
             (run_at Mpisim.Thread_level.Single "func main() { MPI_Barrier(); }")));
    Alcotest.test_case "in-team collective needs MULTIPLE" `Quick (fun () ->
        let src =
          "func main() { pragma omp parallel num_threads(2) { MPI_Barrier(); } }"
        in
        (match (run_at Mpisim.Thread_level.Serialized src).Sim.outcome with
        | Sim.Fault (Sim.Level_violation _) -> ()
        | o -> Alcotest.failf "expected level violation, got %s" (Sim.outcome_to_string o));
        (* At MULTIPLE the placement is accepted by the library (the bug
           then manifests as concurrent collectives or completes by
           scheduling luck). *)
        match (run_at Mpisim.Thread_level.Multiple src).Sim.outcome with
        | Sim.Fault (Sim.Level_violation _) ->
            Alcotest.fail "MULTIPLE must not reject the call"
        | _ -> ());
  ]

let determinism_tests =
  [
    Alcotest.test_case "same seed, same step count" `Quick (fun () ->
        let src =
          {|func main() { var x = 0; pragma omp parallel num_threads(3) {
             pragma omp critical { x = x + 1; } } print(x); }|}
        in
        let r1 = run ~nranks:2 ~seed:7 src and r2 = run ~nranks:2 ~seed:7 src in
        Alcotest.(check int) "steps equal" r1.Sim.stats.Sim.steps r2.Sim.stats.Sim.steps;
        Alcotest.(check bool) "traces equal" true (Sim.trace r1 = Sim.trace r2));
    Alcotest.test_case "round-robin is reproducible" `Quick (fun () ->
        let src = "func main() { MPI_Barrier(); print(rank()); }" in
        let cfg = { (config ~nranks:3 ()) with Sim.schedule = `Round_robin } in
        let r1 = Sim.run ~config:cfg (parse src) in
        let r2 = Sim.run ~config:cfg (parse src) in
        Alcotest.(check bool) "same trace" true (Sim.trace r1 = Sim.trace r2));
    Alcotest.test_case "work statistic accumulates compute costs" `Quick
      (fun () ->
        let result =
          run ~nranks:2 "func main() { compute(10); compute(5); }"
        in
        Alcotest.(check int) "2 ranks * 15" 30 result.Sim.stats.Sim.work);
    Alcotest.test_case "deterministic program agrees across schedules" `Quick
      (fun () ->
        (* A data-race-free program must produce identical per-rank
           results whatever the interleaving. *)
        let src =
          {|func main() {
             var acc = 0;
             pragma omp parallel num_threads(3) {
               pragma omp for i = 0 to 9 reduction(sum: acc) { acc = acc + i; }
               pragma omp single { acc = MPI_Allreduce(acc, sum); }
             }
             print(acc);
           }|}
        in
        let per_rank result rank =
          List.filter_map
            (fun (r, _, v) -> if r = rank then Some v else None)
            (Sim.trace result)
        in
        let reference =
          Sim.run
            ~config:{ (config ~nranks:2 ()) with Sim.schedule = `Round_robin }
            (parse src)
        in
        List.iter
          (fun seed ->
            let result = run ~nranks:2 ~seed src in
            Alcotest.(check bool) "finishes" true (Sim.is_finished result);
            for rank = 0 to 1 do
              Alcotest.(check (list int))
                (Printf.sprintf "rank %d agrees (seed %d)" rank seed)
                (per_rank reference rank) (per_rank result rank)
            done)
          [ 1; 5; 9; 13 ]);
    Alcotest.test_case "missing entry function is rejected" `Quick (fun () ->
        match run "func helper() { }" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

let suite =
  [
    ("sim.sequential", seq_tests);
    ("sim.openmp", omp_tests);
    ("sim.edge", edge_tests);
    ("sim.mpi", mpi_tests);
    ("sim.checks", check_tests);
    ("sim.levels", level_tests);
    ("sim.determinism", determinism_tests);
  ]

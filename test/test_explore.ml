(** Tests for the bounded schedule-space explorer. *)

open Interp

let parse src = Minilang.Parser.parse_string ~file:"test" src

let config ?(nranks = 2) ?(threads = 2) () =
  {
    Sim.nranks;
    default_nthreads = threads;
    schedule = `Round_robin;
    max_steps = 200_000;
    entry = "main";
    record_trace = false;
    thread_level = Mpisim.Thread_level.Multiple;
  }

let racy_src =
  (* Instrumented by hand with a concurrency counter: aborts only when the
     two singles actually overlap. *)
  {|func main() {
     pragma omp parallel num_threads(2) {
       pragma omp single nowait { __count_enter(1); MPI_Barrier(); __count_exit(1); }
       pragma omp single { __count_enter(1); MPI_Allgather(1); __count_exit(1); }
     }
   }|}

let tests =
  [
    Alcotest.test_case "deterministic program yields a single class" `Quick
      (fun () ->
        let s =
          Explore.outcomes ~branch_depth:6 ~budget:300 ~config:(config ())
            (parse
               {|func main() { var x = 0;
                  pragma omp parallel num_threads(2) {
                    pragma omp critical { x = x + 1; }
                  }
                  MPI_Barrier(); }|})
        in
        Alcotest.(check int) "all finished" s.Explore.runs s.Explore.finished;
        Alcotest.(check bool) "several schedules" true (s.Explore.runs > 10));
    Alcotest.test_case "explorer finds both fates of the singles race" `Quick
      (fun () ->
        let s =
          Explore.outcomes ~branch_depth:10 ~budget:3000 ~config:(config ())
            (parse racy_src)
        in
        Alcotest.(check bool) "some schedule finishes" true
          (Explore.reaches s "finished" || Explore.reaches s "fault");
        Alcotest.(check bool) "some schedule aborts at the counter" true
          (Explore.reaches s "aborted"));
    Alcotest.test_case "witness scripts replay deterministically" `Quick
      (fun () ->
        let s =
          Explore.outcomes ~branch_depth:10 ~budget:3000 ~config:(config ())
            (parse racy_src)
        in
        List.iter
          (fun (name, script) ->
            let result = Explore.replay ~config:(config ()) (parse racy_src) script in
            Alcotest.(check string) (name ^ " replays")
              name
              (Explore.class_name result.Sim.outcome))
          s.Explore.witnesses);
    Alcotest.test_case "divergent barrier: every schedule deadlocks" `Quick
      (fun () ->
        let s =
          Explore.outcomes ~branch_depth:6 ~budget:300 ~config:(config ())
            (parse "func main() { if (rank() == 0) { MPI_Barrier(); } }")
        in
        Alcotest.(check int) "all deadlock" s.Explore.runs s.Explore.deadlocked);
    Alcotest.test_case "budget bounds the replays" `Quick (fun () ->
        let s =
          Explore.outcomes ~branch_depth:20 ~budget:50 ~config:(config ())
            (parse racy_src)
        in
        Alcotest.(check bool) "at most budget replays" true
          (s.Explore.replays <= 50);
        Alcotest.(check bool) "runs count everything represented" true
          (s.Explore.runs >= s.Explore.replays));
    Alcotest.test_case "pruned engine matches the reference on the reproducers"
      `Quick (fun () ->
        let cases =
          List.map
            (fun (e : Benchsuite.Reproducers.entry) ->
              (e.Benchsuite.Reproducers.name, Benchsuite.Reproducers.program e,
               2, 8))
            Benchsuite.Reproducers.all
          @ [
              ( "deadlock-barrier (3 ranks, depth 10)",
                Benchsuite.Reproducers.load "deadlock-barrier",
                3,
                10 );
            ]
        in
        List.iter
          (fun (name, program, nranks, branch_depth) ->
            let config = config ~nranks () in
            let reference =
              Explore.outcomes_reference ~branch_depth ~budget:100_000 ~config
                program
            in
            let counts (s : Explore.summary) =
              ( s.Explore.finished,
                s.Explore.aborted,
                s.Explore.faulted,
                s.Explore.deadlocked,
                s.Explore.step_limited )
            in
            let classes (s : Explore.summary) =
              List.sort compare (List.map fst s.Explore.witnesses)
            in
            List.iter
              (fun jobs ->
                let pruned =
                  Explore.outcomes ~branch_depth ~budget:100_000 ~jobs ~config
                    program
                in
                let label = Printf.sprintf "%s, jobs %d" name jobs in
                Alcotest.(check (list string))
                  (label ^ ": same classes")
                  (classes reference) (classes pruned);
                Alcotest.(check bool)
                  (label ^ ": same counts")
                  true
                  (counts reference = counts pruned))
              [ 1; 2; 4 ])
          cases);
    Alcotest.test_case "pruning replays far fewer schedules than it represents"
      `Quick (fun () ->
        let s =
          Explore.outcomes ~branch_depth:10 ~budget:100_000
            ~config:(config ~nranks:3 ())
            (Benchsuite.Reproducers.load "deadlock-barrier")
        in
        Alcotest.(check bool) "pruned some" true (s.Explore.pruned > 0);
        Alcotest.(check int) "accounting holds" s.Explore.runs
          (s.Explore.replays + s.Explore.pruned));
    Alcotest.test_case "jobs:4 summary is byte-identical to jobs:1" `Quick
      (fun () ->
        let run jobs =
          Explore.summary_to_string
            (Explore.outcomes ~branch_depth:10 ~budget:3000 ~jobs
               ~config:(config ()) (parse racy_src))
        in
        Alcotest.(check string) "identical" (run 1) (run 4));
    Alcotest.test_case "witnesses replay after pruning" `Quick (fun () ->
        let program = Benchsuite.Reproducers.load "sections-collectives" in
        let s =
          Explore.outcomes ~branch_depth:8 ~budget:100_000 ~config:(config ())
            program
        in
        List.iter
          (fun (name, script) ->
            let result = Explore.replay ~config:(config ()) program script in
            Alcotest.(check string) (name ^ " replays") name
              (Explore.class_name result.Sim.outcome))
          s.Explore.witnesses);
  ]

let suite = [ ("explore.schedules", tests) ]

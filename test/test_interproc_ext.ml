(** Tests for the interprocedural extension: call-graph summaries, call
    colours, pseudo-collective call sites in phase 3, and end-to-end
    detection of rank-divergent calls. *)

open Parcoach

let parse src = Minilang.Parser.parse_string ~file:"test" src

let ip_options =
  { Driver.default_options with Driver.interprocedural = true }

let callgraph_tests =
  [
    Alcotest.test_case "direct and transitive summaries" `Quick (fun () ->
        let p =
          parse
            {|func a() { MPI_Barrier(); }
              func b() { a(); }
              func c() { compute(1); }
              func main() { b(); c(); }|}
        in
        let collects = Callgraph.may_collect p in
        Alcotest.(check bool) "a collects" true (collects "a");
        Alcotest.(check bool) "b collects transitively" true (collects "b");
        Alcotest.(check bool) "c does not" false (collects "c");
        Alcotest.(check bool) "main collects via b" true (collects "main"));
    Alcotest.test_case "recursion converges" `Quick (fun () ->
        let p =
          parse
            {|func even(n) { if (n > 0) { odd(n - 1); } }
              func odd(n) { if (n > 0) { even(n - 1); } MPI_Barrier(); }
              func main() { even(4); }|}
        in
        let collects = Callgraph.may_collect p in
        Alcotest.(check bool) "even via odd" true (collects "even");
        Alcotest.(check bool) "main" true (collects "main"));
    Alcotest.test_case "call colours are stable, distinct and disjoint from collectives"
      `Quick (fun () ->
        let p =
          parse
            {|func zeta() { MPI_Barrier(); }
              func alpha() { MPI_Barrier(); }
              func main() { zeta(); alpha(); }|}
        in
        let colors =
          Callgraph.call_colors ~collects:(Callgraph.may_collect p) p
        in
        Alcotest.(check int) "three collecting functions" 3 (List.length colors);
        let values = List.map snd colors in
        Alcotest.(check int) "distinct" 3
          (List.length (List.sort_uniq Int.compare values));
        Alcotest.(check bool) "above collective colours" true
          (List.for_all (fun c -> c >= Callgraph.call_color_base) values);
        (* Alphabetical: alpha < main < zeta. *)
        Alcotest.(check (option int)) "alpha first" (Some Callgraph.call_color_base)
          (List.assoc_opt "alpha" colors));
  ]

let phase3_tests =
  [
    Alcotest.test_case "rank-divergent call is flagged only interprocedurally"
      `Quick (fun () ->
        let src =
          {|func leaf() { MPI_Barrier(); }
            func main() { if (rank() == 0) { leaf(); } MPI_Allgather(1); }|}
        in
        let plain = Driver.analyze (parse src) in
        let ip = Driver.analyze ~options:ip_options (parse src) in
        Alcotest.(check int) "intra-procedural misses it" 0
          (Driver.warning_count plain);
        Alcotest.(check int) "interprocedural flags it" 1
          (Driver.warning_count ip));
    Alcotest.test_case "uniform calls stay clean" `Quick (fun () ->
        let src =
          {|func exchange() { MPI_Barrier(); }
            func main() { for i = 0 to 3 { compute(i); } exchange(); MPI_Allgather(1); }|}
        in
        let ip = Driver.analyze ~options:ip_options (parse src) in
        Alcotest.(check int) "no warnings" 0 (Driver.warning_count ip));
    Alcotest.test_case "calls to collective-free functions are ignored" `Quick
      (fun () ->
        let src =
          {|func pure(n) { compute(n); }
            func main() { if (rank() == 0) { pure(1); } MPI_Barrier(); }|}
        in
        let ip = Driver.analyze ~options:ip_options (parse src) in
        Alcotest.(check int) "no warnings" 0 (Driver.warning_count ip));
    Alcotest.test_case "depth classes count pseudo-collectives" `Quick (fun () ->
        let src =
          {|func leaf() { MPI_Barrier(); }
            func main() { leaf(); if (rank() == 0) { leaf(); } }|}
        in
        let ip = Driver.analyze ~options:ip_options (parse src) in
        let fr = Option.get (Driver.func_report ip "main") in
        let call_classes =
          List.filter
            (fun c -> c.Interproc.name = "call:leaf")
            fr.Driver.phase3.Interproc.classes
        in
        Alcotest.(check int) "two sequence positions" 2
          (List.length call_classes));
  ]

let runtime_tests =
  let config =
    {
      Interp.Sim.nranks = 3;
      default_nthreads = 2;
      schedule = `Random 42;
      max_steps = 1_000_000;
      entry = "main";
      record_trace = true;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  [
    Alcotest.test_case "divergent call aborts cleanly when instrumented" `Quick
      (fun () ->
        let src =
          {|func leaf() { MPI_Barrier(); }
            func main() { if (rank() == 0) { leaf(); } MPI_Allgather(1); }|}
        in
        let report = Driver.analyze ~options:ip_options (parse src) in
        let inst = Instrument.instrument report Instrument.Selective in
        let result = Interp.Sim.run ~config inst in
        Alcotest.(check bool) "clean abort" true (Interp.Sim.is_clean_abort result));
    Alcotest.test_case "correct program with instrumented calls finishes" `Quick
      (fun () ->
        let src =
          {|func leaf(n) { MPI_Barrier(); compute(n); }
            func main() {
              var go = 0;
              go = MPI_Allreduce(rank(), max);
              if (go > 0) { leaf(1); } else { leaf(2); }
              MPI_Allgather(1);
            }|}
        in
        let report = Driver.analyze ~options:ip_options (parse src) in
        Alcotest.(check bool) "flagged statically" true
          (Driver.warning_count report > 0);
        let inst = Instrument.instrument report Instrument.Selective in
        let result = Interp.Sim.run ~config inst in
        Alcotest.(check bool) "finishes" true
          (result.Interp.Sim.outcome = Interp.Sim.Finished));
    Alcotest.test_case "benchmarks stay clean under interprocedural analysis"
      `Slow (fun () ->
        List.iter
          (fun (e : Benchsuite.Catalog.entry) ->
            let p = e.Benchsuite.Catalog.generate_small () in
            let report = Driver.analyze ~options:ip_options p in
            let inst = Instrument.instrument report Instrument.Selective in
            let result = Interp.Sim.run ~config inst in
            Alcotest.(check bool)
              (e.Benchsuite.Catalog.name ^ " finishes")
              true
              (result.Interp.Sim.outcome = Interp.Sim.Finished))
          Benchsuite.Catalog.all);
  ]

let combo_tests =
  [
    Alcotest.test_case "taint filter composes with the interprocedural mode"
      `Quick (fun () ->
        (* A uniform-loop call is flagged interprocedurally but dropped by
           the taint filter; a rank-guarded call survives both. *)
        let src =
          {|func leaf() { MPI_Barrier(); }
            func main() {
              for i = 0 to 3 { leaf(); }
              if (rank() == 0) { leaf(); }
            }|}
        in
        let analyze_with taint =
          Driver.analyze
            ~options:
              {
                Driver.default_options with
                Driver.interprocedural = true;
                taint_filter = taint;
              }
            (parse src)
        in
        let plain = analyze_with false and filtered = analyze_with true in
        Alcotest.(check bool) "both flag something" true
          (Driver.warning_count plain > 0 && Driver.warning_count filtered > 0);
        (* Both call sites share a sequence-position class (after-loop
           nodes do not see loop-body sites in the longest-path
           numbering), so the filter shrinks the conditional set of the
           class: the uniform loop condition goes, the rank guard stays. *)
        let flagged_conds report =
          List.fold_left
            (fun acc fr ->
              List.fold_left
                (fun acc c -> acc + List.length c.Interproc.conds)
                acc fr.Driver.phase3.Interproc.flagged)
            0 report.Driver.funcs
        in
        Alcotest.(check bool) "filter drops the uniform loop condition" true
          (flagged_conds filtered < flagged_conds plain));
    Alcotest.test_case
      "initial multithreaded word composes with interprocedural mode" `Quick
      (fun () ->
        let src = "func leaf() { MPI_Barrier(); } func main() { leaf(); }" in
        let report =
          Driver.analyze
            ~options:
              {
                Driver.default_options with
                Driver.interprocedural = true;
                initial_word = [ Pword.P 0 ];
              }
            (parse src)
        in
        (* leaf's barrier is in a multithreaded initial context. *)
        Alcotest.(check bool) "multithreaded collective reported" true
          (List.exists
             (fun w ->
               Warning.class_of w.Warning.kind = "multithreaded collective")
             (Driver.all_warnings report)));
  ]

let suite =
  [
    ("interproc_ext.callgraph", callgraph_tests);
    ("interproc_ext.combos", combo_tests);
    ("interproc_ext.phase3", phase3_tests);
    ("interproc_ext.runtime", runtime_tests);
  ]

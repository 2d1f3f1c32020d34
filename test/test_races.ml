(** Tests for the MHP-based static race pass ({!Parcoach.Races}) and its
    dynamic vector-clock oracle ({!Interp.Raceck}).

    The load-bearing property is differential: the static pass
    over-approximates, so on randomly generated racy programs {e every}
    race the dynamic oracle observes (same variable, same two source
    sites) must be covered by a static warning — while clean programs
    (benchsuite, critical-protected counters) must produce zero static
    race warnings. *)

open Parcoach

let parse src = Minilang.Parser.parse_string ~file:"test" src

let race_options = { Driver.default_options with Driver.races = true }

let analyze_races program = Driver.analyze ~options:race_options program

let race_warning_count report = List.length (Farm.Oracle.static_race_keys report)

let config ~nranks ~nthreads seed =
  {
    Interp.Sim.nranks;
    default_nthreads = nthreads;
    schedule = `Random seed;
    max_steps = 500_000;
    entry = "main";
    record_trace = false;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* Observed dynamic races over several seeded schedules, as (var, site,
   site) keys (sites already ordered by the oracle). *)
let dynamic_race_keys ?(nranks = 2) ?(nthreads = 2) ?(seeds = 5) program =
  List.concat_map
    (fun seed ->
      let oracle = Interp.Raceck.create () in
      let (_ : Interp.Sim.result) =
        Interp.Sim.run ~config:(config ~nranks ~nthreads seed) ~race:oracle
          program
      in
      List.map
        (fun (r : Interp.Raceck.race) ->
          (r.Interp.Raceck.rc_var, r.Interp.Raceck.rc_site1,
           r.Interp.Raceck.rc_site2))
        (Interp.Raceck.races oracle))
    (List.init seeds (fun i -> i))

let key_str (v, s1, s2) = Printf.sprintf "%s@{%s,%s}" v s1 s2

let check_dynamic_covered program =
  let static = Farm.Oracle.static_race_keys (analyze_races program) in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "dynamic race %s statically reported" (key_str key))
        true (List.mem key static))
    (dynamic_race_keys program)

(* ------------------------------------------------------------------ *)
(* The MHP relation on parallelism words                               *)
(* ------------------------------------------------------------------ *)

let mhp_tests =
  let open Pword in
  let check name expected got = Alcotest.(check bool) name expected got in
  [
    Alcotest.test_case "word-level MHP rules" `Quick (fun () ->
        (* Multithreaded common context: everything below is concurrent. *)
        check "P vs P·S" true (Races.mhp ~phase_blind:false [ P 0 ] [ P 0; S 1 ]);
        check "P·S1 vs P·S2" true
          (Races.mhp ~phase_blind:false [ P 0; S 1 ] [ P 0; S 2 ]);
        (* Same single-like region: serialized (one thread claims it). *)
        check "P·S1 vs P·S1" false
          (Races.mhp ~phase_blind:false [ P 0; S 1 ] [ P 0; S 1 ]);
        (* Distinct barrier phases of the innermost common context are
           ordered — unless the phase counts are unreliable (loop through
           a barrier). *)
        check "P vs P·B" false (Races.mhp ~phase_blind:false [ P 0 ] [ P 0; B ]);
        check "P vs P·B (loopy)" true
          (Races.mhp ~phase_blind:true [ P 0 ] [ P 0; B ]);
        check "P·B·S1 vs P·B·S2" true
          (Races.mhp ~phase_blind:false [ P 0; B; S 1 ] [ P 0; B; S 2 ]);
        (* Monothreaded common context serialises non-single residue. *)
        check "S1·x vs S1·y" false
          (Races.mhp ~phase_blind:false [ S 1 ] [ S 1 ]))
  ]

(* ------------------------------------------------------------------ *)
(* Static pass on concrete programs                                    *)
(* ------------------------------------------------------------------ *)

let racy_counter = "../examples/programs/racy_counter.hml"

let racy_flag = "../examples/programs/racy_flag.hml"

let static_tests =
  [
    Alcotest.test_case "unsynchronised shared counter is flagged" `Quick
      (fun () ->
        let program = Minilang.Parser.parse_file racy_counter in
        let report = analyze_races program in
        Alcotest.(check bool) "has race warning" true
          (race_warning_count report >= 1);
        let feeds =
          List.exists
            (fun (w : Warning.t) ->
              match w.Warning.kind with
              | Warning.Data_race { var; feeds_collective; _ } ->
                  var = "count" && feeds_collective
              | _ -> false)
            (Driver.all_warnings report)
        in
        Alcotest.(check bool) "feeds the allreduce" true feeds);
    Alcotest.test_case "nowait single flag read is flagged, post-barrier isn't"
      `Quick (fun () ->
        let program = Minilang.Parser.parse_file racy_flag in
        let report = analyze_races program in
        let keys = Farm.Oracle.static_race_keys report in
        Alcotest.(check bool) "write/read race on flag" true
          (List.exists (fun (v, _, _) -> v = "flag") keys);
        (* The read after the explicit barrier (line 18) is ordered. *)
        Alcotest.(check bool) "post-barrier read not flagged" true
          (List.for_all
             (fun (_, s1, s2) ->
               let after_barrier s =
                 Test_json.contains s ":18:" || Test_json.contains s ":21:"
               in
               (not (after_barrier s1)) && not (after_barrier s2))
             keys));
    Alcotest.test_case "critical-protected counter is clean" `Quick (fun () ->
        let program =
          parse
            {|func main() {
                var c = 0;
                pragma omp parallel num_threads(2) {
                  pragma omp critical { c = c + 1; }
                }
                print(c);
              }|}
        in
        Alcotest.(check int) "no race warnings" 0
          (race_warning_count (analyze_races program)));
    Alcotest.test_case "one-sided critical still races" `Quick (fun () ->
        let program =
          parse
            {|func main() {
                var c = 0;
                pragma omp parallel num_threads(2) {
                  pragma omp critical { c = c + 1; }
                  compute(c);
                }
              }|}
        in
        Alcotest.(check bool) "race reported" true
          (race_warning_count (analyze_races program) >= 1));
    Alcotest.test_case "distinct critical names do not protect" `Quick
      (fun () ->
        let program =
          parse
            {|func main() {
                var c = 0;
                pragma omp parallel num_threads(2) {
                  pragma omp single nowait {
                    pragma omp critical(a) { c = c + 1; }
                  }
                  pragma omp single {
                    pragma omp critical(b) { c = c + 1; }
                  }
                }
              }|}
        in
        Alcotest.(check bool) "race reported" true
          (race_warning_count (analyze_races program) >= 1));
    Alcotest.test_case "private (inner) declarations do not race" `Quick
      (fun () ->
        let program =
          parse
            {|func main() {
                pragma omp parallel num_threads(4) {
                  var t = omp_tid();
                  t = t + 1;
                  compute(t);
                }
              }|}
        in
        Alcotest.(check int) "no race warnings" 0
          (race_warning_count (analyze_races program)));
    Alcotest.test_case "barrier separates write and read" `Quick (fun () ->
        let program =
          parse
            {|func main() {
                var x = 0;
                pragma omp parallel num_threads(2) {
                  pragma omp single nowait { x = 1; }
                  pragma omp barrier;
                  compute(x);
                }
              }|}
        in
        Alcotest.(check int) "no race warnings" 0
          (race_warning_count (analyze_races program)));
    Alcotest.test_case "clean benchsuite programs have zero race warnings"
      `Quick (fun () ->
        List.iter
          (fun (e : Benchsuite.Catalog.entry) ->
            let program = e.Benchsuite.Catalog.generate_small () in
            Alcotest.(check int)
              (e.Benchsuite.Catalog.name ^ " race warnings")
              0
              (race_warning_count (analyze_races program)))
          Benchsuite.Catalog.all);
    Alcotest.test_case "race pass off by default" `Quick (fun () ->
        let program = Minilang.Parser.parse_file racy_counter in
        Alcotest.(check int) "no race warnings without --races" 0
          (race_warning_count (Driver.analyze program)));
    Alcotest.test_case "json report round-trips the race warning" `Quick
      (fun () ->
        let program = Minilang.Parser.parse_file racy_counter in
        let js = Json_report.to_string (analyze_races program) in
        Alcotest.(check bool) "well-formed" true (Test_json.json_well_formed js);
        Alcotest.(check bool) "has race fields" true
          (Test_json.contains js "data race"
          && Test_json.contains js "\"variable\":\"count\""
          && Test_json.contains js "\"accesses\":"
          && Test_json.contains js "\"feeds_collective\":true"
          && Test_json.contains js "\"advice\":"
          && Test_json.contains js "\"race_pairs\":"));
  ]

(* ------------------------------------------------------------------ *)
(* Dynamic oracle                                                      *)
(* ------------------------------------------------------------------ *)

let dynamic_tests =
  [
    Alcotest.test_case "oracle observes the counter race (every schedule)"
      `Quick (fun () ->
        let program = Minilang.Parser.parse_file racy_counter in
        let keys = dynamic_race_keys ~nthreads:4 ~seeds:3 program in
        Alcotest.(check bool) "counter race observed" true
          (List.exists (fun (v, _, _) -> v = "count") keys);
        check_dynamic_covered program);
    Alcotest.test_case "oracle observes the flag race, not the barriered read"
      `Quick (fun () ->
        let program = Minilang.Parser.parse_file racy_flag in
        let keys = dynamic_race_keys ~seeds:3 program in
        Alcotest.(check bool) "flag race observed" true
          (List.exists (fun (v, _, _) -> v = "flag") keys);
        check_dynamic_covered program);
    Alcotest.test_case "oracle is silent on the critical-protected counter"
      `Quick (fun () ->
        let program =
          parse
            {|func main() {
                var c = 0;
                pragma omp parallel num_threads(4) {
                  pragma omp critical { c = c + 1; }
                }
                print(c);
              }|}
        in
        Alcotest.(check int) "no dynamic races" 0
          (List.length (dynamic_race_keys ~nthreads:4 program)));
    Alcotest.test_case "oracle is silent across a barrier" `Quick (fun () ->
        let program =
          parse
            {|func main() {
                var x = 0;
                pragma omp parallel num_threads(2) {
                  pragma omp single nowait { x = 1; }
                  pragma omp barrier;
                  compute(x);
                }
              }|}
        in
        Alcotest.(check int) "no dynamic races" 0
          (List.length (dynamic_race_keys program)));
    Alcotest.test_case "oracle is silent on clean benchsuite programs" `Quick
      (fun () ->
        List.iter
          (fun (e : Benchsuite.Catalog.entry) ->
            let program = e.Benchsuite.Catalog.generate_small () in
            Alcotest.(check int)
              (e.Benchsuite.Catalog.name ^ " dynamic races")
              0
              (List.length (dynamic_race_keys ~seeds:2 program)))
          Benchsuite.Catalog.all);
  ]

(* ------------------------------------------------------------------ *)
(* Differential property: dynamic ⊆ static                              *)
(* ------------------------------------------------------------------ *)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "every dynamically observed race is statically reported (racy \
            generator)"
         ~count:40 Test_qcheck.arb_racy_program
         (fun p ->
           let static = Farm.Oracle.static_race_keys (analyze_races p) in
           List.for_all
             (fun key -> List.mem key static)
             (dynamic_race_keys ~seeds:3 p)));
  ]

let suite =
  [
    ("races.mhp", mhp_tests);
    ("races.static", static_tests);
    ("races.dynamic", dynamic_tests);
    ("races.qcheck", qcheck_tests);
  ]

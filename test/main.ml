(** Test runner aggregating every suite.  [main.exe golden SECTION FILE]
    instead writes a golden section to FILE (see {!Test_golden}). *)

let () =
  match Sys.argv with
  | [| _; "golden"; section; file |] -> Test_golden.print section file
  | _ ->
      Alcotest.run "parcoach-repro"
        (Test_minilang.suite @ Test_frontend.suite @ Test_cfg.suite @ Test_pword.suite @ Test_phases.suite @ Test_mpisim.suite @ Test_ompsim.suite @ Test_sim.suite @ Test_instrument.suite @ Test_endtoend.suite @ Test_qcheck.suite @ Test_mustlike.suite @ Test_stream.suite @ Test_interproc_ext.suite @ Test_programs.suite @ Test_explore.suite @ Test_p2p.suite @ Test_json.suite @ Test_perf.suite @ Test_compile.suite @ Test_races.suite @ Test_requests.suite @ Test_dpor.suite @ Test_serve.suite @ Test_par.suite @ Test_farm.suite @ Test_golden.suite)

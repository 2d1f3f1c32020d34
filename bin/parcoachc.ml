(** [parcoachc] — the PARCOACH compiler front end.

    Parses and validates a hybrid MPI+OpenMP mini-language program, runs
    the three static verification phases, prints the warnings, and
    optionally emits the instrumented program and/or DOT dumps of the CFGs
    annotated with parallelism words. *)

open Cmdliner

let read_program file bench =
  match (file, bench) with
  | Some path, None -> (
      match Minilang.Parser.read_file path with
      | Ok src -> Minilang.Parser.parse_string ~file:path src
      | Error reason ->
          Fmt.epr "cannot read %s: %s@." path reason;
          exit 2)
  | None, Some name -> (
      match Benchsuite.Catalog.find name with
      | Some entry -> entry.Benchsuite.Catalog.generate_small ()
      | None ->
          Fmt.epr "unknown benchmark '%s'; known: %s@." name
            (String.concat ", " Benchsuite.Catalog.names);
          exit 2)
  | Some _, Some _ ->
      Fmt.epr "give either a file or --bench, not both@.";
      exit 2
  | None, None ->
      Fmt.epr "give a source file or --bench NAME@.";
      exit 2

let run file bench initial_multi level taint interproc races requests only
    list_checks jobs json timings instrument_mode output dot =
  (* Usage errors first, before the program is read. *)
  (match jobs with
  | Some j when j < 1 ->
      Fmt.epr "--jobs must be at least 1 (got %d)@." j;
      exit 2
  | _ -> ());
  if list_checks then begin
    List.iter print_endline Parcoach.Warning.all_classes;
    exit 0
  end;
  let tm =
    if timings then Some (Parcoach.Timings.create ()) else None
  in
  let time phase f = Parcoach.Timings.record_opt tm phase f in
  let report_timings () =
    match tm with
    | None -> ()
    | Some t -> Fmt.epr "per-phase wall-clock:@.%a" Parcoach.Timings.pp t
  in
  (* In --json mode the issues go to stdout as part of the single JSON
     object (machine consumers and the daemon protocol share one
     format); the plain mode keeps printing them to stderr.  A syntax
     error is reported like a validation error. *)
  let print_issues issues =
    if not json then
      List.iter
        (fun i -> Fmt.epr "%s@." (Minilang.Validate.issue_to_string i))
        issues
  in
  let reject issues =
    if json then print_endline (Parcoach.Json_report.invalid_to_string issues);
    report_timings ();
    exit 1
  in
  let program =
    match
      time "parse" (fun () ->
          Minilang.Validate.catch_syntax_error (fun () ->
              read_program file bench))
    with
    | Ok program -> program
    | Error issue ->
        print_issues [ issue ];
        reject [ issue ]
  in
  let issues =
    time "validate" (fun () -> Minilang.Validate.check_program program)
  in
  print_issues issues;
  if not (Minilang.Validate.is_valid issues) then reject issues;
  let options =
    {
      Parcoach.Driver.initial_word =
        (if initial_multi then [ Parcoach.Pword.P 0 ] else []);
      provided_level = level;
      taint_filter = taint;
      interprocedural = interproc;
      races;
      requests;
    }
  in
  let report = Parcoach.Driver.analyze ~options ?jobs ?timings:tm program in
  let report = Parcoach.Driver.filter_classes report ~only in
  if json then print_endline (Parcoach.Json_report.to_string ~issues report)
  else Fmt.pr "%a" Parcoach.Driver.pp_report report;
  report_timings ();
  (match dot with
  | None -> ()
  | Some prefix ->
      List.iter
        (fun fr ->
          let g = fr.Parcoach.Driver.graph in
          let pword = fr.Parcoach.Driver.pword in
          let annot id =
            Option.map Parcoach.Pword.to_string (Parcoach.Pword.pw_opt pword id)
          in
          let path = Printf.sprintf "%s.%s.dot" prefix fr.Parcoach.Driver.fname in
          let oc = open_out path in
          output_string oc (Cfg.Dot.to_dot ~annot g);
          close_out oc;
          Fmt.pr "wrote %s@." path)
        report.Parcoach.Driver.funcs);
  (match instrument_mode with
  | None -> ()
  | Some mode ->
      let instrumented = Parcoach.Instrument.instrument report mode in
      let source = Minilang.Pretty.program_to_string instrumented in
      (match output with
      | None -> print_string source
      | Some path ->
          let oc = open_out path in
          output_string oc source;
          close_out oc;
          Fmt.pr "wrote instrumented program to %s@." path);
      let ccs, counters, returns = Parcoach.Instrument.check_counts report mode in
      Fmt.pr "inserted checks: %d CC, %d counters, %d return checks@." ccs
        counters returns);
  if Parcoach.Driver.warning_count report > 0 then exit 3

let file =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Source file.")

let bench =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"NAME"
        ~doc:"Analyse a generated benchmark (BT-MZ, SP-MZ, LU-MZ, EPCC suite, HERA).")

let initial_multi =
  Arg.(
    value & flag
    & info [ "initial-multithreaded" ]
        ~doc:
          "Assume functions are entered from a multithreaded context \
           (initial parallelism word P instead of the empty word).")

let level =
  let cv =
    Arg.conv
      ( (fun s ->
          match Mpisim.Thread_level.of_string s with
          | Some l -> Ok l
          | None -> Error (`Msg (Printf.sprintf "unknown thread level '%s'" s))),
        fun ppf l -> Fmt.string ppf (Mpisim.Thread_level.to_string l) )
  in
  Arg.(
    value
    & opt cv Mpisim.Thread_level.Multiple
    & info [ "level" ] ~docv:"LEVEL"
        ~doc:
          "MPI thread level the program initialises (single, funneled, \
           serialized, multiple).")

let taint =
  Arg.(
    value & flag
    & info [ "taint-filter" ]
        ~doc:
          "Only flag control-flow divergence on conditions that may be \
           rank-dependent (dataflow taint analysis).")

let interproc =
  Arg.(
    value & flag
    & info [ "interprocedural" ]
        ~doc:
          "Treat calls to collective-bearing functions as pseudo-collective \
           sites in the inter-process phase.")

let races =
  Arg.(
    value & flag
    & info [ "races" ]
        ~doc:
          "Run the MHP-based shared-memory data-race pass and report \
           conflicting accesses to shared variables that may happen in \
           parallel.")

let requests =
  Arg.(
    value & flag
    & info [ "requests" ]
        ~doc:
          "Run the nonblocking request-lifecycle pass and report request \
           leaks, double waits, uses of a buffer before completion, and \
           split-phase collectives whose completion placement may \
           diverge across ranks.")

let only =
  (* Unknown class names are rejected at option-parse time, so cmdliner
     exits with its CLI-error status (124) like the other option errors
     of this tool family. *)
  let cls =
    Arg.conv
      ( (fun s ->
          if List.mem s Parcoach.Warning.all_classes then Ok s
          else
            Error
              (`Msg
                 (Printf.sprintf
                    "unknown warning class '%s' (see --list-checks)" s))),
        Fmt.string )
  in
  Arg.(
    value
    & opt (some (list cls)) None
    & info [ "only" ] ~docv:"CLASS[,CLASS...]"
        ~doc:
          "Report only warnings of the given comma-separated classes \
           (see $(b,--list-checks)).  Filtering applies to the text and \
           JSON reports and to the exit status; instrumentation \
           decisions are unaffected.")

let list_checks =
  Arg.(
    value & flag
    & info [ "list-checks" ]
        ~doc:"Print the known warning class names (one per line) and exit.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Analyse up to $(docv) functions in parallel (OCaml domains). \
           Defaults to the available cores; 1 forces the sequential path. \
           The report is identical for every value.")

let json =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the analysis report as machine-readable JSON on stdout. \
           Validation issues, and a located syntax error, are included \
           as an 'issues' array (with 'valid' false and exit 1 when the \
           program is invalid) instead of plain text on stderr.")

let timings =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "Print per-phase wall-clock (parse, validate, cfg, pword, \
           phase1-3, races) to stderr.  The same timer feeds the \
           parcoachd response timings.")

let instrument_mode =
  let cv =
    Arg.conv
      ( (fun s ->
          match s with
          | "selective" -> Ok Parcoach.Instrument.Selective
          | "exhaustive" -> Ok Parcoach.Instrument.Exhaustive
          | _ -> Error (`Msg "expected 'selective' or 'exhaustive'")),
        fun ppf m ->
          Fmt.string ppf
            (match m with
            | Parcoach.Instrument.Selective -> "selective"
            | Parcoach.Instrument.Exhaustive -> "exhaustive") )
  in
  Arg.(
    value
    & opt (some cv) None
    & info [ "instrument" ] ~docv:"MODE"
        ~doc:"Emit verification code: 'selective' (PARCOACH) or 'exhaustive'.")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Instrumented output file.")

let dot =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"PREFIX"
        ~doc:"Dump per-function CFGs (annotated with parallelism words).")

let cmd =
  let doc =
    "static validation of MPI collectives in multi-threaded context"
  in
  Cmd.v
    (Cmd.info "parcoachc" ~version:"0.6.0" ~doc)
    Term.(
      const run $ file $ bench $ initial_multi $ level $ taint $ interproc
      $ races $ requests $ only $ list_checks $ jobs $ json $ timings
      $ instrument_mode $ output $ dot)

let () = exit (Cmd.eval cmd)

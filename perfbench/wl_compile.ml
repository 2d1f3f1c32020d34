(* compile: one op is [parcoachc --json --instrument selective --jobs 1]
   run in process, from source text to the JSON report. *)

type input = { key : string; source : string; answers : (string * string) list }

let options =
  {
    Parcoach.Driver.default_options with
    Parcoach.Driver.taint_filter = true;
    interprocedural = true;
    races = true;
    requests = true;
  }

(* The layer metric a Parcoach.Timings phase of Parcoach.Driver feeds. *)
let driver_phase = function
  | "cfg" -> Some "cfg.build_ms"
  | ("pword" | "phase1" | "phase2" | "phase3" | "races" | "requests") as p ->
      Some ("parcoach." ^ p ^ "_ms")
  | _ -> None

(* Check a report's warning classes against the pinned answers. *)
let check_classes key classes answers =
  List.filter_map
    (fun (check, arg) ->
      let ok =
        match check with
        | "has" -> List.mem arg classes
        | "lacks" -> not (List.mem arg classes)
        | "runs" -> true
        | _ -> Fmt.failwith "compile: unknown check %S" check
      in
      if ok then None else Some (Printf.sprintf "%s: %s %s" key check arg))
    answers

let compile (ctx : Common.ctx) input =
  let tr = ctx.Common.tr in
  let span name f = Trace.span tr name f in
  let program =
    span "minilang.parse" (fun () ->
        Minilang.Parser.parse_string ~file:input.key input.source)
  in
  let issues =
    span "minilang.validate" (fun () -> Minilang.Validate.check_program program)
  in
  if not (Minilang.Validate.is_valid issues) then [ input.key ^ ": invalid" ]
  else begin
    let graphs = span "cfg.build" (fun () -> Cfg.Build.of_program program) in
    let tm = if tr.Trace.enabled then Some (Parcoach.Timings.create ()) else None in
    let report =
      span "parcoach.analyze" (fun () ->
          Parcoach.Driver.analyze ~options ~graphs ~jobs:1 ?timings:tm program)
    in
    let (_ : Minilang.Ast.program) =
      span "parcoach.instrument" (fun () ->
          Parcoach.Instrument.instrument report Parcoach.Instrument.Selective)
    in
    let json =
      span "parcoach.json_report" (fun () ->
          Parcoach.Json_report.to_string ~issues report)
    in
    if tr.Trace.enabled then begin
      Option.iter (fun tm -> Trace.add_timings tr tm driver_phase) tm;
      Trace.count tr "cfg.nodes"
        (List.fold_left (fun n g -> n + Cfg.Graph.nb_nodes g) 0 graphs);
      Trace.count tr "parcoach.cc_sites"
        (List.fold_left
           (fun n fr -> n + List.length fr.Parcoach.Driver.cc_sites)
           0 report.Parcoach.Driver.funcs);
      Trace.count tr "parcoach.report_bytes" (String.length json)
    end;
    let classes = List.map fst (Parcoach.Driver.warnings_by_class report) in
    Common.verdict ctx "%s %s" input.key (String.concat "," classes);
    check_classes input.key classes input.answers
  end

let setup (ctx : Common.ctx) =
  let answers = Answers.load "compile.txt" in
  let catalog =
    List.concat_map
      (fun (e : Benchsuite.Catalog.entry) ->
        List.map
          (fun (size, gen) ->
            let key = Printf.sprintf "catalog:%s/%s" e.Benchsuite.Catalog.name size in
            { key; source = Common.source_of (gen ()); answers = Answers.find answers key })
          [
            ("small", e.Benchsuite.Catalog.generate_small);
            ("figure1", e.Benchsuite.Catalog.generate);
            ("large", e.Benchsuite.Catalog.generate_large);
          ])
      Benchsuite.Catalog.all
  in
  let examples =
    List.map
      (fun (f, source) ->
        let key = "example:" ^ f in
        { key; source; answers = Answers.require answers key })
      (Common.examples ())
  in
  let repros =
    List.map
      (fun (e : Benchsuite.Reproducers.entry) ->
        let key = "repro:" ^ e.Benchsuite.Reproducers.name in
        { key; source = e.Benchsuite.Reproducers.source; answers = Answers.require answers key })
      Benchsuite.Reproducers.all
  in
  let figure1 =
    List.map
      (fun (e : Benchsuite.Catalog.entry) ->
        (e.Benchsuite.Catalog.name, e.Benchsuite.Catalog.generate ()))
      Benchsuite.Catalog.all
  in
  let mutants, dropped =
    Common.mutants (Common.rng ctx 0xc0) ~bugs:Benchsuite.Injector.all ~per_base:3
      figure1
  in
  let mutants =
    List.map
      (fun (key, bug, p) ->
        {
          key = "mutant:" ^ key;
          source = Common.source_of p;
          answers =
            Answers.require answers ("bug:" ^ Benchsuite.Injector.short_name bug);
        })
      mutants
  in
  (Array.of_list (catalog @ examples @ repros @ mutants), List.length mutants, dropped)

let run (ctx : Common.ctx) =
  let (inputs, nmutants, dropped), setup_s =
    Loop.repeat_timed (fun () -> setup ctx)
  in
  let inputs = Common.shuffle (Common.rng ctx 0xc1) inputs in
  let nops = Array.length inputs in
  let loop =
    Loop.run ?tracer:(Common.tracer ctx) ~budget:ctx.Common.budget ~warmup:nops ~heap_at:2000 ~nops
      ~size:1 (fun i -> compile ctx inputs.(i mod nops))
  in
  {
    Common.loop;
    setup_s;
    correct = loop.Loop.failed = 0;
    notes =
      [
        Printf.sprintf "compile: %d inputs (%d injector mutants, %d dropped as invalid)"
          nops nmutants dropped;
      ];
    layer = [];
  }

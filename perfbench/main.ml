(* The validator's benchmark.  Run it from the root of a source checkout:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-check [--workload NAME] [--seed N]
     main.exe --describe

   NAME is compile, simulate, serve or farm, or all, which runs the four
   in one process.  Untraced runs print the end-to-end metrics; traced
   runs print the per-layer metrics and write their spans to
   _perfbench/.  The last line of standard output is the result object. *)

let workloads =
  [
    ("compile", Wl_compile.run);
    ("simulate", Wl_simulate.run);
    ("serve", Wl_serve.run);
    ("farm", Wl_farm.run);
  ]

type outcome = {
  name : string;
  report : Common.report;
  values : (string * float) list;
  verdicts : string;  (** Digest of the known-answer verdicts. *)
}

let e2e_values (report : Common.report) =
  let loop = report.Common.loop in
  let per_round f =
    Array.to_list loop.Loop.rounds
    |> List.filter (fun r -> r.Loop.r_samples <> [||] && r.Loop.r_wall > 0.)
    |> List.map f |> Array.of_list |> Loop.median
  in
  [
    ("op_ms_p50", per_round (fun r -> Loop.percentile 0.5 r.Loop.r_samples));
    ("op_ms_p99", per_round (fun r -> Loop.percentile 0.99 r.Loop.r_samples));
    ("ops_per_s", per_round (fun r -> float_of_int r.Loop.r_attempted /. r.Loop.r_wall));
    ( "ok_ops_share",
      float_of_int (loop.Loop.attempted - loop.Loop.failed)
      /. float_of_int (max 1 loop.Loop.attempted) );
    ("setup_s", report.Common.setup_s);
    ("peak_heap_mb", loop.Loop.peak_heap_mb);
  ]

let layer_values tr (report : Common.report) ~gc0 ~gc1 =
  let loop = report.Common.loop in
  let spans = Hashtbl.fold (fun name ms acc -> (name ^ "_ms", ms) :: acc) (Trace.self_ms tr) [] in
  let counters = Hashtbl.fold (fun name v acc -> (name, v) :: acc) tr.Trace.counters [] in
  let untraced = Loop.median loop.Loop.samples
  and traced = Loop.median loop.Loop.traced_samples in
  spans @ counters @ report.Common.layer
  @ [
      ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("trace.overhead_share", (traced -. untraced) /. untraced);
      ("trace.ops", float_of_int (Array.length loop.Loop.traced_samples));
    ]

let run_one ~seed ~budget ~tracing name =
  let ctx =
    { Common.seed; budget; tracing; tr = Trace.create (); verdicts = Buffer.create 4096 }
  in
  let gc0 = Gc.quick_stat () in
  let report = (List.assoc name workloads) ctx in
  let gc1 = Gc.quick_stat () in
  if tracing then begin
    (try Unix.mkdir "_perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Trace.write ctx.Common.tr (Printf.sprintf "_perfbench/trace-%s-%d.jsonl" name seed)
  end;
  {
    name;
    report;
    values =
      (if tracing then layer_values ctx.Common.tr report ~gc0 ~gc1 else e2e_values report);
    verdicts = Digest.to_hex (Digest.string (Buffer.contents ctx.Common.verdicts));
  }

let print_human o =
  let loop = o.report.Common.loop in
  List.iter print_endline o.report.Common.notes;
  Printf.printf
    "%s: %d ops, %d attempted, %d failed, %.2f s timed, %d samples (%d traced)\n"
    o.name loop.Loop.ops loop.Loop.attempted loop.Loop.failed loop.Loop.wall_s
    (Array.length loop.Loop.samples)
    (Array.length loop.Loop.traced_samples);
  List.iter (fun f -> Printf.printf "  failed: %s\n" f) loop.Loop.failures;
  Printf.printf
    "%s: measured p50 %.4f ms per unit, %.1f units per wall-clock second; probe median \
     %.4f ms (reference %.1f ms)\n"
    o.name loop.Loop.raw_p50 loop.Loop.raw_ops_per_s loop.Loop.probe_ms
    Loop.reference_probe_ms

let meta ~workload ~seed ~seconds ~tracing =
  Printf.sprintf
    "{\"meta\": {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
     \"nproc\": %d, \"ocaml\": %S, \"git_rev\": %S}}"
    workload seed seconds
    (if tracing then 1 else 0)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_GIT_REV"))

(* Self-check: two runs with the same seed and a fixed op count give
   identical exact counts and known-answer verdicts; a run with the next
   seed completes. *)
let self_check ~seed names =
  let ops = function "farm" -> 2 | "simulate" -> 120 | _ -> 200 in
  let ok = ref true in
  List.iter
    (fun name ->
      let run seed = run_one ~seed ~budget:(Loop.Ops (ops name)) ~tracing:true name in
      let a = run seed and b = run seed and c = run (seed + 1) in
      let differ =
        List.filter_map
          (fun def ->
            let v o = Option.value ~default:0. (List.assoc_opt def.Metrics.name o.values) in
            if def.Metrics.exact && v a <> v b then
              Some (Printf.sprintf "%s: %g vs %g" def.Metrics.name (v a) (v b))
            else None)
          Metrics.per_layer
      in
      let same_verdicts = String.equal a.verdicts b.verdicts in
      let correct o = o.report.Common.correct in
      let pass = differ = [] && same_verdicts && correct a && correct c in
      Printf.printf "self-check %-8s %s (verdicts %s, %d exact counts differ, seed %d %s)\n"
        name
        (if pass then "PASS" else "FAIL")
        (if same_verdicts then "identical" else "differ")
        (List.length differ) (seed + 1)
        (if correct c then "completes" else "incorrect");
      List.iter (fun s -> Printf.printf "  %s\n" s) differ;
      if not pass then ok := false)
    names;
  if not !ok then exit 1

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let check = ref false and describe = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME compile|simulate|serve|farm|all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S timed seconds per workload");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--self-check", Arg.Set check, " determinism self-check");
      ("--describe", Arg.Set describe, " print the metric table");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench";
  let names =
    match !workload with
    | "all" -> List.map fst workloads
    | w when List.mem_assoc w workloads -> [ w ]
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  if !describe then Metrics.describe ()
  else if !check then self_check ~seed:!seed names
  else begin
    let tracing = !trace = 1 in
    let defs = if tracing then Metrics.per_layer else Metrics.end_to_end in
    let outcomes =
      List.map
        (fun name ->
          let o =
            run_one ~seed:!seed ~budget:(Loop.Seconds (float_of_int !seconds)) ~tracing name
          in
          print_human o;
          o)
        names
    in
    print_endline
      (meta ~workload:(String.concat "," names) ~seed:!seed ~seconds:!seconds ~tracing);
    let sum f = List.fold_left (fun n o -> n + f o.report.Common.loop) 0 outcomes in
    let correct = List.for_all (fun o -> o.report.Common.correct) outcomes in
    (* One workload: its metrics by name; several: "<workload>.<metric>". *)
    let defs, values =
      match outcomes with
      | [ o ] -> (defs, o.values)
      | _ ->
          ( List.concat_map
              (fun o ->
                List.map (fun def -> { def with Metrics.name = o.name ^ "." ^ def.Metrics.name }) defs)
              outcomes,
            List.concat_map
              (fun o -> List.map (fun (k, v) -> (o.name ^ "." ^ k, v)) o.values)
              outcomes )
    in
    print_endline
      (Metrics.result_line ~correct
         ~attempted:(sum (fun l -> l.Loop.attempted))
         ~failed:(sum (fun l -> l.Loop.failed))
         defs values)
  end

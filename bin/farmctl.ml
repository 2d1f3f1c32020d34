(* farmctl — drive the corpus-scale differential fuzzing farm.

   Generates a seeded corpus of hybrid MPI+OpenMP programs, pushes it
   through the sharded generate -> validate -> analyze -> simulate
   pipeline (lib/farm) and reports every static-vs-dynamic disagreement.
   Exit codes follow the house style: 0 clean, 3 when violations are
   reported, 2 on an out-of-range numeric flag, 124 on CLI errors. *)

let version = "0.7.0"

let parse_sim_seeds s =
  match
    List.map
      (fun part -> int_of_string (String.trim part))
      (String.split_on_char ',' s)
  with
  | [] -> Error "empty seed list"
  | seeds -> Ok seeds
  | exception _ -> Error (Printf.sprintf "bad seed list '%s'" s)

let run seed families variants jobs shards batch ranks threads sim_seeds
    max_steps handicap minimize save_repro manifest_file dry_run timings
    verdicts =
  Cli.check_at_least "families" ~min:1 families;
  Cli.check_at_least "variants" ~min:1 variants;
  Cli.check_at_least "jobs" ~min:1 jobs;
  Cli.check_at_least "shards" ~min:1 shards;
  Cli.check_at_least "batch" ~min:1 batch;
  Cli.check_at_least "ranks" ~min:1 ranks;
  Cli.check_at_least "threads" ~min:1 threads;
  Cli.check_at_least "max-steps" ~min:0 max_steps;
  let sim =
    {
      Farm.Oracle.nranks = ranks;
      nthreads = threads;
      seeds = sim_seeds;
      max_steps;
    }
  in
  let spec = { Farm.Pipeline.seed; families; variants; sim; handicap } in
  let tm = if timings then Some (Parcoach.Timings.create ()) else None in
  let corpus = Farm.Pipeline.corpus ?timings:tm spec in
  (match manifest_file with
  | None -> ()
  | Some path ->
      let text = Farm.Pipeline.manifest ~shards spec corpus in
      if String.equal path "-" then print_string text
      else Cli.write_file path text;
      Fmt.epr "manifest: %d entries -> %s@." (Array.length corpus)
        (if String.equal path "-" then "<stdout>" else path));
  if dry_run then 0
  else begin
    let result = Farm.Pipeline.run ?timings:tm ~jobs ~shards ~batch spec in
    let st = result.Farm.Pipeline.stats in
    Fmt.pr "farm: %d programs (%d unique, %d duplicates) over %d shard(s), %d batch(es), %d stolen@."
      st.Farm.Pipeline.programs st.Farm.Pipeline.unique
      st.Farm.Pipeline.duplicates st.Farm.Pipeline.shards
      st.Farm.Pipeline.batches st.Farm.Pipeline.stolen;
    Fmt.pr "analysis cache: %d hit(s), %d miss(es)@." st.Farm.Pipeline.cache_hits
      st.Farm.Pipeline.cache_misses;
    if verdicts then
      Array.iter
        (fun (v : Farm.Pipeline.verdict) ->
          Fmt.pr "#%06d %s %s@." v.Farm.Pipeline.entry_id
            (String.sub v.Farm.Pipeline.fp 0 12)
            (Farm.Oracle.obs_to_string v.Farm.Pipeline.obs))
        result.Farm.Pipeline.verdicts;
    let nviol = List.length result.Farm.Pipeline.violations in
    Fmt.pr "violations: %d@." nviol;
    List.iter
      (fun (id, v) ->
        Fmt.pr "  #%06d %s@." id (Farm.Oracle.violation_to_string v))
      result.Farm.Pipeline.violations;
    if minimize && nviol > 0 then begin
      let repros =
        Farm.Pipeline.minimized_reproducers spec result corpus
      in
      List.iter
        (fun ((e : Farm.Pipeline.entry), (v : Farm.Oracle.violation), _case,
              program) ->
          let text = Minilang.Pretty.program_to_string program in
          let lines =
            List.length
              (List.filter
                 (fun l -> String.trim l <> "")
                 (String.split_on_char '\n' text))
          in
          Fmt.pr "@.minimized reproducer for %s (from entry #%06d, %d lines):@.%s"
            v.Farm.Oracle.vkind e.Farm.Pipeline.id lines text;
          match save_repro with
          | None -> ()
          | Some dir ->
              (* A directory that cannot be made is reported by the
                 write below. *)
              (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
               with Sys_error _ -> ());
              let path =
                Filename.concat dir
                  (Printf.sprintf "farm_%s.hml" v.Farm.Oracle.vkind)
              in
              Cli.write_file path text;
              Fmt.epr "saved: %s@." path)
        repros
    end;
    (match tm with
    | None -> ()
    | Some t -> Fmt.epr "per-stage wall-clock:@.%a" Parcoach.Timings.pp t);
    if nviol > 0 then 3 else 0
  end

open Cmdliner

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Corpus PRNG seed.")

let families =
  Arg.(
    value & opt int 40
    & info [ "families" ] ~docv:"N" ~doc:"Number of skeleton families.")

let variants =
  Arg.(
    value & opt int 6
    & info [ "variants" ] ~docv:"N"
        ~doc:"Programs per family (clean base + injected-fault mutants).")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for the farm pipeline.")

let shards =
  Arg.(
    value & opt int 8
    & info [ "shards" ] ~docv:"N"
        ~doc:"Fingerprint shards (one summary cache each).")

let batch =
  Arg.(
    value & opt int 16
    & info [ "batch" ] ~docv:"N" ~doc:"Programs per work-stealing batch.")

let ranks =
  Arg.(value & opt int 2 & info [ "ranks" ] ~docv:"N" ~doc:"Simulated MPI ranks.")

let threads =
  Arg.(
    value & opt int 2
    & info [ "threads" ] ~docv:"N" ~doc:"Default OpenMP team size.")

let sim_seeds =
  let seeds_conv =
    Arg.conv
      ( (fun s ->
          match parse_sim_seeds s with
          | Ok seeds -> Ok seeds
          | Error e -> Error (`Msg e)),
        fun ppf seeds ->
          Fmt.string ppf (String.concat "," (List.map string_of_int seeds)) )
  in
  Arg.(
    value
    & opt seeds_conv Farm.Oracle.default_sim.Farm.Oracle.seeds
    & info [ "sim-seeds" ] ~docv:"S1,S2,..."
        ~doc:"Scheduler seeds; each gets one bare and one CC-instrumented run.")

let max_steps =
  Arg.(
    value & opt int 200_000
    & info [ "max-steps" ] ~docv:"N" ~doc:"Per-run scheduler step budget.")

let handicap =
  let handicap_conv =
    Arg.conv
      ( (fun s ->
          match Farm.Oracle.handicap_of_name s with
          | Some h -> Ok h
          | None -> Error (`Msg (Printf.sprintf "unknown handicap '%s'" s))),
        fun ppf h -> Fmt.string ppf (Farm.Oracle.handicap_name h) )
  in
  Arg.(
    value
    & opt (some handicap_conv) None
    & info [ "handicap" ] ~docv:"H"
        ~doc:
          "Deliberately weaken the checker to drill detection: \
           drop-race-edge or blind-mismatch.")

let minimize =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:"Delta-debug each violation down to a minimal reproducer.")

let save_repro =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-repro" ] ~docv:"DIR"
        ~doc:"With $(b,--minimize): save reproducers as DIR/farm_<kind>.hml.")

let manifest_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"FILE"
        ~doc:"Write the corpus manifest to FILE ('-' for stdout).")

let dry_run =
  Arg.(
    value & flag
    & info [ "dry-run" ]
        ~doc:"Generate the corpus (and manifest) without running checks.")

let timings =
  Arg.(
    value & flag
    & info [ "timings" ] ~doc:"Print the per-stage wall-clock breakdown.")

let verdicts =
  Arg.(
    value & flag & info [ "verdicts" ] ~doc:"Print one verdict line per entry.")

let cmd =
  let doc = "corpus-scale differential fuzzing farm for the PARCOACH checker" in
  Cmd.v
    (Cmd.info "farmctl" ~version ~doc)
    Term.(
      const run $ seed $ families $ variants $ jobs $ shards $ batch $ ranks
      $ threads $ sim_seeds $ max_steps $ handicap $ minimize
      $ save_repro $ manifest_file $ dry_run $ timings $ verdicts)

let () = exit (Cmd.eval' cmd)

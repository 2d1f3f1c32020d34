(** Tests for the differential fuzzing farm ([lib/farm]).

    Property: every decision trace — arbitrary integers, arbitrary
    length, with or without an injected fault — decodes to a program
    that validates and whose pretty-printed text parses back to the
    identical AST (the generator is total over the valid space, which is
    what lets the delta debugger shrink traces freely).

    Pipeline: verdicts are deterministic across domain counts, the farm
    agrees with the CLI-equivalent serial baseline, summaries reused
    through the shared cache give the reports of cold analyses, the
    manifest is byte-stable, and a deliberately weakened checker is
    caught and minimized to a small reproducer. *)

let sim_small =
  { Farm.Oracle.default_sim with Farm.Oracle.seeds = [ 1; 2 ] }

let spec_small =
  {
    Farm.Pipeline.default_spec with
    Farm.Pipeline.families = 8;
    variants = 4;
    sim = sim_small;
  }

(* A larger corpus on the default simulation settings. *)
let spec_default =
  { Farm.Pipeline.default_spec with Farm.Pipeline.families = 25; variants = 6 }

let nonblank_lines text =
  List.length
    (List.filter
       (fun l -> String.trim l <> "")
       (String.split_on_char '\n' text))

(* ------------------------------------------------------------------ *)
(* Generator properties                                                *)
(* ------------------------------------------------------------------ *)

let gen_trace = QCheck.Gen.(array_size (int_bound 80) (int_range (-3) 40))

let gen_case =
  QCheck.Gen.(
    let* trace = gen_trace in
    let* inject =
      oneof
        [
          return None;
          (let* bug = oneofl Benchsuite.Injector.all in
           let* site = int_bound 100 in
           return (Some (bug, site)));
        ]
    in
    return { Farm.Gen.trace; inject })

let case_print (c : Farm.Gen.case) = Farm.Gen.case_id c

let properties =
  [
    QCheck.Test.make ~count:300 ~name:"every case decodes to a valid program"
      (QCheck.make ~print:case_print gen_case)
      (fun case ->
        let p = Farm.Gen.program case in
        Minilang.Validate.is_valid (Minilang.Validate.check_program p));
    QCheck.Test.make ~count:300
      ~name:"pretty -> parse round-trips to the identical AST"
      (QCheck.make ~print:case_print gen_case)
      (fun case ->
        let p = Farm.Gen.program case in
        let text = Minilang.Pretty.program_to_string p in
        let p' = Minilang.Parser.parse_string ~file:"<farm>" text in
        Minilang.Ast.equal_program p p');
    QCheck.Test.make ~count:100
      ~name:"recorded traces replay to the same program"
      QCheck.(make ~print:string_of_int Gen.small_nat)
      (fun seed ->
        let rng = Random.State.make [| 0xfeed; seed |] in
        let trace = Farm.Gen.random_trace rng in
        let p = Farm.Gen.skeleton trace in
        Minilang.Validate.is_valid (Minilang.Validate.check_program p)
        && Minilang.Ast.equal_program p (Farm.Gen.skeleton trace));
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline tests                                                      *)
(* ------------------------------------------------------------------ *)

let obs_list (r : Farm.Pipeline.result) =
  Array.to_list
    (Array.map (fun (v : Farm.Pipeline.verdict) -> v.Farm.Pipeline.obs)
       r.Farm.Pipeline.verdicts)

let tests =
  [
    Alcotest.test_case "verdicts are domain-count invariant" `Quick (fun () ->
        let r1 = Farm.Pipeline.run ~jobs:1 ~shards:4 ~batch:4 spec_small in
        let r2 = Farm.Pipeline.run ~jobs:2 ~shards:4 ~batch:4 spec_small in
        let r3 = Farm.Pipeline.run ~jobs:1 ~shards:2 ~batch:7 spec_small in
        Alcotest.(check bool) "jobs 1 = jobs 2" true
          (obs_list r1 = obs_list r2);
        Alcotest.(check bool) "shard/batch invariant" true
          (obs_list r1 = obs_list r3);
        let d1 = Farm.Pipeline.run ~jobs:1 ~shards:8 ~batch:16 spec_default in
        let d2 = Farm.Pipeline.run ~jobs:2 ~shards:8 ~batch:16 spec_default in
        Alcotest.(check bool) "default settings: jobs 1 = jobs 2" true
          (obs_list d1 = obs_list d2));
    Alcotest.test_case "farm agrees with the serial baseline" `Quick
      (fun () ->
        List.iter
          (fun spec ->
            let farm = Farm.Pipeline.run ~jobs:1 spec in
            let serial = Farm.Pipeline.run_serial spec in
            List.iter2
              (fun f s ->
                Alcotest.(check bool) "obs agree" true
                  (Farm.Oracle.obs_agree f s))
              (obs_list farm) (obs_list serial);
            Alcotest.(check int) "clean corpus, no violations" 0
              (List.length farm.Farm.Pipeline.violations))
          [ spec_small; spec_default ]);
    Alcotest.test_case "reused summaries give cold reports" `Quick
      (fun () ->
        (* The first families of the default corpus, in corpus order,
           through one shared cache: every report must render as a cold
           analysis does.  Each key's layouts are tracked so the test
           also sees hits relocated from the first layout and from a
           written-back one. *)
        let options = Farm.Oracle.options in
        let cache = Serve.Cache.create () in
        let layouts = Hashtbl.create 256 in
        let relocated = ref 0 and from_written_back = ref 0 in
        Array.iter
          (fun (e : Farm.Pipeline.entry) ->
            let p = e.Farm.Pipeline.program in
            let report, _, _ = Serve.Cache.analyze cache ~options ~jobs:1 p in
            Alcotest.(check string)
              (Printf.sprintf "entry %d" e.Farm.Pipeline.id)
              (Parcoach.Json_report.to_string
                 (Parcoach.Driver.analyze ~options ~jobs:1 p))
              (Parcoach.Json_report.to_string report);
            List.iter2
              (fun ((f : Minilang.Ast.func), key)
                   (fr : Parcoach.Driver.func_report) ->
                let locs =
                  List.map
                    (fun (s : Minilang.Ast.stmt) -> s.Minilang.Ast.sloc)
                    (Minilang.Ast.stmts_of_func f)
                in
                match Hashtbl.find_opt layouts key with
                | None -> Hashtbl.replace layouts key (locs, locs)
                | Some (first, last) ->
                    if locs <> last && fr.Parcoach.Driver.warnings <> [] then begin
                      incr relocated;
                      if last <> first then incr from_written_back
                    end;
                    Hashtbl.replace layouts key (first, locs))
              (Serve.Hash.keys ~options p)
              report.Parcoach.Driver.funcs)
          (Farm.Pipeline.corpus
             { Farm.Pipeline.default_spec with Farm.Pipeline.families = 40 });
        Alcotest.(check bool) "some hits relocated" true (!relocated > 0);
        Alcotest.(check bool) "some relocated from a written-back layout" true
          (!from_written_back > 0));
    Alcotest.test_case "manifest is byte-stable" `Quick (fun () ->
        let m () =
          Farm.Pipeline.manifest ~shards:8 spec_small
            (Farm.Pipeline.fingerprinted (Farm.Pipeline.corpus spec_small))
        in
        let a = m () and b = m () in
        Alcotest.(check string) "identical" a b;
        Alcotest.(check int) "one line per entry + header"
          (spec_small.Farm.Pipeline.families
           * spec_small.Farm.Pipeline.variants
          + 1)
          (nonblank_lines a));
    Alcotest.test_case "entry digests give the same fingerprints and keys"
      `Quick (fun () ->
        (* The farm hashes each function once, when it fingerprints the
           corpus, and keys the summary cache with those digests. *)
        let options = Farm.Oracle.options in
        Array.iter
          (fun (e : Farm.Pipeline.entry) ->
            let p = e.Farm.Pipeline.program in
            let name = Printf.sprintf "entry %d" e.Farm.Pipeline.id in
            Alcotest.(check string) (name ^ " fingerprint")
              (Farm.Fingerprint.program p) e.Farm.Pipeline.fp;
            Alcotest.(check bool) (name ^ " digests every function") true
              (List.for_all2 ( == ) p.Minilang.Ast.funcs
                 (List.map fst e.Farm.Pipeline.digests));
            Alcotest.(check (list string)) (name ^ " keys")
              (List.map snd (Serve.Hash.keys ~options p))
              (List.map snd
                 (Serve.Hash.keys ~options
                    ~digest:(fun f -> List.assq_opt f e.Farm.Pipeline.digests)
                    p)))
          (Farm.Pipeline.fingerprinted (Farm.Pipeline.corpus spec_small)));
    Alcotest.test_case "work queue: take own shards, then steal" `Quick
      (fun () ->
        (* One item spawns no helper, so worker 0 runs it whoever owns
           its shard: shard 2 belongs to worker 2 (foreign), shard 3 to
           worker 0. *)
        let once sizes =
          Par.iter_shards ~jobs:3 sizes (fun ~worker ~shard:_ _ ->
              Alcotest.(check int) "the caller runs it" 0 worker)
        in
        Alcotest.(check int) "foreign shard counts as stolen" 1
          (once [| 0; 0; 1 |]);
        Alcotest.(check int) "own shard does not" 0 (once [| 0; 0; 0; 1 |]);
        let r = Farm.Pipeline.run ~jobs:1 ~shards:4 ~batch:4 spec_small in
        Alcotest.(check int) "jobs:1 steals nothing" 0
          r.Farm.Pipeline.stats.Farm.Pipeline.stolen);
    Alcotest.test_case "timings cover every pipeline stage" `Quick (fun () ->
        let tm = Parcoach.Timings.create () in
        let (_ : Farm.Pipeline.result) =
          Farm.Pipeline.run ~timings:tm ~jobs:1 spec_small
        in
        let phases = List.map fst (Parcoach.Timings.entries tm) in
        List.iter
          (fun phase ->
            Alcotest.(check bool) (phase ^ " recorded") true
              (List.mem phase phases))
          [
            "generate"; "fingerprint"; "validate"; "hash"; "compile";
            "simulate";
          ]);
    Alcotest.test_case "weakened checker is caught and minimized" `Quick
      (fun () ->
        List.iter
          (fun (spec, limit) ->
            let spec =
              {
                spec with
                Farm.Pipeline.handicap = Some Farm.Oracle.Blind_mismatch;
              }
            in
            let entries =
              Farm.Pipeline.fingerprinted (Farm.Pipeline.corpus spec)
            in
            let result = Farm.Pipeline.run_entries ~jobs:1 spec entries in
            Alcotest.(check bool) "drill violations found" true
              (result.Farm.Pipeline.violations <> []);
            let repros =
              Farm.Pipeline.minimized_reproducers ?limit spec result entries
            in
            List.iter
              (fun ( (_ : Farm.Pipeline.entry),
                     (v : Farm.Oracle.violation),
                     case,
                     program ) ->
                Alcotest.(check bool) "still violates" true
                  (Farm.Pipeline.violates ~handicap:Farm.Oracle.Blind_mismatch
                     ~sim:spec.Farm.Pipeline.sim ~vkind:v.Farm.Oracle.vkind
                     case);
                Alcotest.(check bool) "reproducer fits in 30 lines" true
                  (nonblank_lines (Minilang.Pretty.program_to_string program)
                  <= 30))
              repros)
          [
            ( { spec_small with Farm.Pipeline.families = 6; variants = 6 },
              Some 1 );
            ({ spec_default with Farm.Pipeline.families = 10 }, None);
          ]);
  ]

let suite =
  [
    ("farm.gen", List.map QCheck_alcotest.to_alcotest properties);
    ("farm.pipeline", tests);
  ]

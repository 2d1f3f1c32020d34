(** Corpus pipeline (see the interface). *)

open Minilang

type spec = {
  seed : int;
  families : int;
  variants : int;
  sim : Oracle.sim_spec;
  handicap : Oracle.handicap option;
}

let default_spec =
  { seed = 1; families = 40; variants = 6; sim = Oracle.default_sim; handicap = None }

type entry = {
  id : int;
  family : int;
  variant : int;
  case : Gen.case;
  program : Ast.program;
  fp : string;
  family_fp : string;
  digests : (Ast.func * string) list;
}

type verdict = { entry_id : int; fp : string; obs : Oracle.obs }

type stats = {
  programs : int;
  unique : int;
  duplicates : int;
  shards : int;
  batches : int;
  stolen : int;
  cache_hits : int;
  cache_misses : int;
}

type result = {
  verdicts : verdict array;
  violations : (int * Oracle.violation) list;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Corpus generation                                                   *)
(* ------------------------------------------------------------------ *)

let nbugs = List.length Benchsuite.Injector.all

let corpus ?timings spec =
  Parcoach.Timings.record_opt timings "generate" @@ fun () ->
  let rng = Random.State.make [| 0x4fa12; spec.seed |] in
  let entries = ref [] in
  let id = ref 0 in
  for family = 0 to spec.families - 1 do
    let trace = Gen.random_trace rng in
    let base_case = { Gen.trace; inject = None } in
    let base = Gen.program base_case in
    let family_fp = Fingerprint.program base in
    for variant = 0 to spec.variants - 1 do
      let case =
        if variant = 0 then base_case
        else
          let bug = List.nth Benchsuite.Injector.all (Random.State.int rng nbugs) in
          let site = Random.State.int rng 64 in
          { Gen.trace; inject = Some (bug, site) }
      in
      let program = if variant = 0 then base else Gen.program case in
      entries :=
        {
          id = !id;
          family;
          variant;
          case;
          program;
          fp = "";
          family_fp;
          digests = [];
        }
        :: !entries;
      incr id
    done
  done;
  Array.of_list (List.rev !entries)

let fingerprinted ?timings entries =
  Parcoach.Timings.record_opt timings "fingerprint" @@ fun () ->
  Array.map
    (fun (e : entry) ->
      let digests =
        List.map (fun f -> (f, Serve.Hash.func_digest f)) e.program.Ast.funcs
      in
      { e with fp = Fingerprint.of_digests (List.map snd digests); digests })
    entries

let manifest ?(shards = 8) spec (entries : entry array) =
  let entries =
    if Array.length entries > 0 && entries.(0).fp = "" then
      fingerprinted entries
    else entries
  in
  let buf = Buffer.create (Array.length entries * 96) in
  Buffer.add_string buf
    (Printf.sprintf "# farm corpus seed=%d families=%d variants=%d shards=%d\n"
       spec.seed spec.families spec.variants shards);
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "id=%06d family=%04d variant=%d shard=%d fp=%s %s\n"
           e.id e.family e.variant
           (Fingerprint.shard ~shards e.family_fp)
           e.fp (Gen.case_id e.case)))
    entries;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Validation and judgement of one entry                               *)
(* ------------------------------------------------------------------ *)

let check_valid program =
  let issues = Validate.check_program program in
  if not (Validate.is_valid issues) then
    Fmt.failwith "farm generator produced an invalid program: %s"
      (String.concat "; "
         (List.map Validate.issue_to_string (Validate.errors issues)))

let observe_entry ?timings ~cache ~spec entry =
  Parcoach.Timings.record_opt timings "validate" (fun () ->
      check_valid entry.program);
  (* Per-shard summary reuse: mutants of one skeleton share every
     untouched function, relocated onto the mutant's line numbering. *)
  let report, _, _ =
    Serve.Cache.analyze cache ~options:Oracle.options ~jobs:1 ?timings
      ~digest:(fun f -> List.assq_opt f entry.digests)
      entry.program
  in
  Oracle.observe ?handicap:spec.handicap ?timings ~sim:spec.sim ~report
    entry.program

(* ------------------------------------------------------------------ *)
(* The farm fast path                                                  *)
(* ------------------------------------------------------------------ *)

let violations_of verdicts =
  List.concat_map
    (fun v -> List.map (fun viol -> (v.entry_id, viol)) v.obs.Oracle.violations)
    (Array.to_list verdicts)

let assemble ~shards ~batches ~stolen ~caches ~programs ~unique entries obs_of =
  let verdicts =
    Array.map
      (fun e ->
        match obs_of e with
        | Some obs -> { entry_id = e.id; fp = e.fp; obs }
        | None -> Fmt.failwith "farm: entry %d has no verdict" e.id)
      entries
  in
  let hits, misses =
    Array.fold_left
      (fun (h, m) cache ->
        let s = Serve.Cache.stats cache in
        (h + s.Serve.Cache.hits, m + s.Serve.Cache.misses))
      (0, 0) caches
  in
  {
    verdicts;
    violations = violations_of verdicts;
    stats =
      {
        programs;
        unique;
        duplicates = programs - unique;
        shards;
        batches;
        stolen;
        cache_hits = hits;
        cache_misses = misses;
      };
  }

let run_entries ?timings ?(jobs = 1) ?(shards = 8) ?(batch = 16) spec entries =
  if jobs < 1 then invalid_arg "Pipeline.run: jobs must be >= 1";
  if shards < 1 then invalid_arg "Pipeline.run: shards must be >= 1";
  if batch < 1 then invalid_arg "Pipeline.run: batch must be >= 1";
  let n = Array.length entries in
  (* Dedup before any expensive stage: structurally identical programs
     (colliding mutants, repeated skeletons) are judged once and their
     verdict copied. *)
  let rep_of = Hashtbl.create n in
  let uniques = ref [] in
  Array.iter
    (fun (e : entry) ->
      if not (Hashtbl.mem rep_of e.fp) then begin
        Hashtbl.add rep_of e.fp e.id;
        uniques := e :: !uniques
      end)
    entries;
  let uniques = Array.of_list (List.rev !uniques) in
  (* Shard by family fingerprint: all mutants of one skeleton land on one
     shard and hit that shard's summary cache. *)
  let by_shard = Array.make shards [] in
  Array.iter
    (fun e ->
      let s = Fingerprint.shard ~shards e.family_fp in
      by_shard.(s) <- e :: by_shard.(s))
    uniques;
  let batches_of shard_entries =
    let arr = Array.of_list (List.rev shard_entries) in
    let nbatches = (Array.length arr + batch - 1) / batch in
    Array.init nbatches (fun b ->
        Array.sub arr (b * batch) (min batch (Array.length arr - (b * batch))))
  in
  let shard_batches = Array.map batches_of by_shard in
  let nbatches = Array.fold_left (fun acc b -> acc + Array.length b) 0 shard_batches in
  let caches = Array.init shards (fun _ -> Serve.Cache.create ()) in
  let results : Oracle.obs option array = Array.make n None in
  (* Worker [w] owns shards [w], [w + jobs], ... and claims foreign
     batches once those are drained; [stolen] counts the latter. *)
  let stolen =
    Par.iter_shards ~jobs (Array.map Array.length shard_batches)
      (fun ~worker:_ ~shard b ->
        Array.iter
          (fun entry ->
            results.(entry.id) <-
              Some (observe_entry ?timings ~cache:caches.(shard) ~spec entry))
          shard_batches.(shard).(b))
  in
  (* Duplicates inherit their representative's observation. *)
  let obs_of e =
    match results.(e.id) with
    | Some _ as o -> o
    | None -> results.(Hashtbl.find rep_of e.fp)
  in
  assemble ~shards ~batches:nbatches ~stolen ~caches
    ~programs:n ~unique:(Array.length uniques) entries obs_of

let run ?timings ?jobs ?shards ?batch spec =
  run_entries ?timings ?jobs ?shards ?batch spec
    (fingerprinted ?timings (corpus ?timings spec))

(* ------------------------------------------------------------------ *)
(* The CLI-equivalent serial baseline                                  *)
(* ------------------------------------------------------------------ *)

let run_serial_entries ?timings spec (entries : entry array) =
  let time p f = Parcoach.Timings.record_opt timings p f in
  (* The CLI's unconditional text output: [parcoachc] / [runsim
     --instrument] render the full report of every analysis, and every
     run prints its outcome and statistics lines — the text a shell
     differential harness greps. *)
  let render_report rep =
    time "render" @@ fun () ->
    let (_ : string) = Fmt.str "%a" Parcoach.Driver.pp_report rep in
    ()
  in
  let render_run (r : Interp.Sim.result) =
    time "render" @@ fun () ->
    let s = r.Interp.Sim.stats in
    let (_ : string) =
      Fmt.str "outcome: %a@." Interp.Sim.pp_outcome r.Interp.Sim.outcome
    in
    let (_ : string) =
      Fmt.str
        "steps: %d | tasks: %d | work: %d | collectives: %d | CC checks: %d \
         | counter checks: %d@."
        s.Interp.Sim.steps s.Interp.Sim.tasks_spawned s.Interp.Sim.work
        (Mpisim.Engine.completed_count r.Interp.Sim.engine)
        (Mpisim.Engine.cc_check_count r.Interp.Sim.engine)
        s.Interp.Sim.counter_checks
    in
    ()
  in
  let verdicts =
    Array.map
      (fun e ->
        (* The corpus lives as source files; every CLI invocation starts
           from text. *)
        let text = time "pretty" (fun () -> Pretty.program_to_string e.program) in
        let reparse () =
          let p = time "parse" (fun () -> Parser.parse_string ~file:"<farm>" text) in
          time "validate" (fun () -> check_valid p);
          p
        in
        (* parcoachc-equivalent: one parse + one analysis + one rendered
           report. *)
        let static = reparse () in
        let report =
          Parcoach.Driver.analyze ~options:Oracle.options ~jobs:1 ?timings static
        in
        render_report report;
        (* runsim-equivalent, one invocation per seed: parse + run, with
           the CLI's always-on event-trace recording. *)
        let races = ref [] in
        let plain =
          List.map
            (fun seed ->
              let p = reparse () in
              let oracle = Interp.Raceck.create () in
              let r =
                time "simulate" (fun () ->
                    Interp.Sim.run
                      ~config:(Oracle.cli_config_of ~sim:spec.sim seed)
                      ~race:oracle p)
              in
              races :=
                List.rev_append (Oracle.dynamic_race_keys oracle) !races;
              render_run r;
              Interp.Explore.class_name r.Interp.Sim.outcome)
            spec.sim.Oracle.seeds
        in
        (* runsim --instrument exhaustive, one invocation per seed:
           parse + analyze + instrument + run. *)
        let cc =
          List.map
            (fun seed ->
              let p = reparse () in
              let rep =
                Parcoach.Driver.analyze ~options:Oracle.options ~jobs:1 ?timings p
              in
              render_report rep;
              let instr =
                time "instrument" (fun () ->
                    Parcoach.Instrument.instrument rep
                      Parcoach.Instrument.Exhaustive)
              in
              let r =
                time "simulate" (fun () ->
                    Interp.Sim.run
                      ~config:(Oracle.cli_config_of ~sim:spec.sim seed)
                      instr)
              in
              render_run r;
              Interp.Explore.class_name r.Interp.Sim.outcome)
            spec.sim.Oracle.seeds
        in
        {
          entry_id = e.id;
          fp = e.fp;
          obs =
            Oracle.judged ?handicap:spec.handicap ~report
              {
                Oracle.plain;
                cc = Some cc;
                races = List.sort_uniq compare !races;
              };
        })
      entries
  in
  {
    verdicts;
    violations = violations_of verdicts;
    stats =
      {
        programs = Array.length entries;
        unique = Array.length entries;
        duplicates = 0;
        shards = 1;
        batches = Array.length entries;
        stolen = 0;
        cache_hits = 0;
        cache_misses = 0;
      };
  }

let run_serial ?timings spec =
  run_serial_entries ?timings spec
    (fingerprinted ?timings (corpus ?timings spec))

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)
(* ------------------------------------------------------------------ *)

let violates ?handicap ~sim ~vkind case =
  let program = Gen.program case in
  match Validate.is_valid (Validate.check_program program) with
  | false -> false
  | true ->
      let report =
        Parcoach.Driver.analyze ~options:Oracle.options ~jobs:1 program
      in
      let obs = Oracle.observe ?handicap ~sim ~report program in
      List.exists
        (fun (v : Oracle.violation) -> String.equal v.vkind vkind)
        obs.Oracle.violations

let minimized_reproducers ?(limit = 2) spec result entries =
  (* First violating entry per violation kind, in corpus order. *)
  let picked = Hashtbl.create 4 in
  let targets =
    List.filter
      (fun (id, (v : Oracle.violation)) ->
        if Hashtbl.mem picked v.vkind || Hashtbl.length picked >= limit then
          false
        else begin
          Hashtbl.add picked v.vkind id;
          true
        end)
      result.violations
  in
  List.map
    (fun (id, (v : Oracle.violation)) ->
      let entry = entries.(id) in
      let check = violates ?handicap:spec.handicap ~sim:spec.sim ~vkind:v.vkind in
      let minimized = Minimize.case ~check entry.case in
      (entry, v, minimized, Gen.program minimized))
    targets

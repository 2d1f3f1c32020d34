(* farm: one op is one program through [Farm.Pipeline.run] on the
   default corpus (400 families x 6 variants, 6 simulator seeds), with 8
   shards and batches of 16.  Programs run in passes over the whole
   corpus, so a pass is one loop step covering every program.

   The passes run on one domain.  With two, the farm's timings followed
   how much of the machine's second core the host granted (it ran at a
   third of the first core's speed when both were busy), and the spread
   between runs reached half the metric's bound.

   A program fails when the differential oracle reports a violation for
   it, or when its fast-path observation disagrees with the serial
   CLI-equivalent path ([run_serial_entries]), which is run once on the
   same corpus after the timed region.  The run is correct when the
   failures are exactly the pinned ones of answers/farm.txt. *)

let shards = 8

let batch = 16

(* The default corpus (corpus seed 1, 400 families x 6 variants); the
   workload seed picks the six simulator seeds, and seed 1 picks the
   default ones, 1 to 6. *)
let spec (ctx : Common.ctx) =
  {
    Farm.Pipeline.default_spec with
    Farm.Pipeline.families = 400;
    variants = 6;
    sim =
      {
        Farm.Oracle.default_sim with
        Farm.Oracle.seeds = List.init 6 (fun i -> (6 * (ctx.Common.seed - 1)) + i + 1);
      };
  }

let static_stages =
  [ "validate"; "hash"; "cfg"; "pword"; "phase1"; "phase2"; "phase3"; "races"; "requests"; "instrument" ]

let stage = function
  | "generate" -> Some "farm.gen_ms"
  | "fingerprint" -> Some "farm.fingerprint_ms"
  | "compile" -> Some "farm.compile_ms"
  | "simulate" -> Some "farm.simulate_ms"
  | s when List.mem s static_stages -> Some "farm.static_ms"
  | _ -> None

let record tr tm (result : Farm.Pipeline.result) =
  Trace.add_timings tr tm stage;
  (* Parcoach.Driver's phases and the lowering, as the other workloads name them. *)
  Trace.add_timings tr tm (function
    | "compile" -> Some "interp.lower_ms"
    | "simulate" -> Some "interp.sim_ms"
    | p -> Wl_compile.driver_phase p);
  let st = result.Farm.Pipeline.stats in
  Trace.count tr "farm.programs" st.Farm.Pipeline.programs;
  Trace.count tr "farm.unique" st.Farm.Pipeline.unique;
  Trace.count tr "farm.cache_hits" st.Farm.Pipeline.cache_hits;
  Trace.count tr "farm.cache_lookups" (st.Farm.Pipeline.cache_hits + st.Farm.Pipeline.cache_misses);
  Trace.count tr "farm.stolen_batches" st.Farm.Pipeline.stolen;
  Trace.count tr "farm.cc_elided"
    (Array.fold_left
       (fun n (v : Farm.Pipeline.verdict) ->
         if v.Farm.Pipeline.obs.Farm.Oracle.cc = None then n + 1 else n)
       0 result.Farm.Pipeline.verdicts)

let violating (result : Farm.Pipeline.result) =
  List.sort_uniq compare (List.map fst result.Farm.Pipeline.violations)

(* The run's failures as known-answer lines: each violating program with
   each kind of violation it shows, and each disagreeing program. *)
let failures (result : Farm.Pipeline.result) disagree : Answers.t =
  let entry id = Printf.sprintf "entry:%d" id in
  List.sort_uniq compare
    (List.map
       (fun (id, v) -> (entry id, ("violates", v.Farm.Oracle.vkind)))
       result.Farm.Pipeline.violations
    @ List.map (fun id -> (entry id, ("disagrees", "-"))) disagree)

let run (ctx : Common.ctx) =
  let spec = spec ctx in
  let entries, setup_s =
    Loop.repeat_timed (fun () ->
        Farm.Pipeline.fingerprinted (Farm.Pipeline.corpus spec))
  in
  let n = Array.length entries in
  let tr = ctx.Common.tr in
  let last = ref None and unstable = ref false in
  let pass _ =
    let tm = if tr.Trace.enabled then Some (Parcoach.Timings.create ()) else None in
    let result =
      Trace.span tr "farm.pass" (fun () ->
          Farm.Pipeline.run ?timings:tm ~jobs:1 ~shards ~batch spec)
    in
    Option.iter (fun tm -> record tr tm result) tm;
    (* Every pass must reach the same verdicts. *)
    (match !last with
    | Some (prev : Farm.Pipeline.result) ->
        if
          not
            (Array.for_all2
               (fun (a : Farm.Pipeline.verdict) (b : Farm.Pipeline.verdict) ->
                 a.Farm.Pipeline.obs = b.Farm.Pipeline.obs)
               prev.Farm.Pipeline.verdicts result.Farm.Pipeline.verdicts)
        then unstable := true
    | None -> ());
    last := Some result;
    List.map (fun id -> Printf.sprintf "entry %d: differential violation" id) (violating result)
  in
  let loop =
    Loop.run ?tracer:(Common.tracer ctx) ~budget:ctx.Common.budget ~warmup:3 ~heap_at:25
      ~nops:1 ~size:n pass
  in
  let fast = Option.get !last in
  (* Outside the timed region: the serial CLI-equivalent path. *)
  let serial = Farm.Pipeline.run_serial_entries spec entries in
  let disagree =
    List.filter
      (fun i ->
        not
          (Farm.Oracle.obs_agree fast.Farm.Pipeline.verdicts.(i).Farm.Pipeline.obs
             serial.Farm.Pipeline.verdicts.(i).Farm.Pipeline.obs))
      (List.init n Fun.id)
  in
  let violations = violating fast in
  let found = failures fast disagree
  and pinned = List.sort_uniq compare (Answers.load "farm.txt") in
  let diff a b = List.filter (fun x -> not (List.mem x b)) a in
  let show what lines =
    List.map (fun (key, (check, arg)) -> Printf.sprintf "farm: %s: %s %s %s" what key check arg) lines
  in
  let unexpected = diff found pinned and missing = diff pinned found in
  let bad = List.sort_uniq compare (violations @ disagree) in
  let per_pass = List.length bad in
  let kinds =
    List.sort_uniq compare
      (List.map (fun (_, v) -> v.Farm.Oracle.vkind) fast.Farm.Pipeline.violations)
  in
  let loop =
    {
      loop with
      Loop.failed = loop.Loop.ops * per_pass;
      failures =
        List.map (fun i -> Printf.sprintf "entry %d: fast path disagrees with serial" i) disagree
        @ loop.Loop.failures;
    }
  in
  List.iter (fun id -> Common.verdict ctx "violation %d" id) violations;
  List.iter (fun id -> Common.verdict ctx "disagreement %d" id) disagree;
  let counter = Trace.counter tr in
  let ratio a b = if b = 0. then 0. else a /. b in
  {
    Common.loop;
    setup_s;
    correct = (not !unstable) && unexpected = [] && missing = [];
    notes =
      [
        Printf.sprintf
          "farm: corpus seed %d, simulator seeds %s, %d programs; %d with differential \
           violations (%d violations: %s), %d disagreeing with the serial path; \
           failed_ops_share %.5f"
          spec.Farm.Pipeline.seed
          (String.concat "," (List.map string_of_int spec.Farm.Pipeline.sim.Farm.Oracle.seeds))
          n (List.length violations)
          (List.length fast.Farm.Pipeline.violations)
          (String.concat ", " kinds) (List.length disagree)
          (float_of_int per_pass /. float_of_int n);
      ]
      @ (if !unstable then [ "farm: verdicts changed between passes" ] else [])
      @ show "unexpected failure" unexpected
      @ show "pinned failure not seen" missing;
    layer =
      [
        ("farm.unique_share", ratio (counter "farm.unique") (counter "farm.programs"));
        ("farm.cache_hit_share", ratio (counter "farm.cache_hits") (counter "farm.cache_lookups"));
        ("farm.cc_elided_share", ratio (counter "farm.cc_elided") (counter "farm.programs"));
      ];
  }

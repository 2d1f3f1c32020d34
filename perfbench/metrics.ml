(* Metric definitions and the result line.

   End-to-end metrics are what a user of the tools waits for; every
   workload reports all of them.  Per-layer metrics come from the traced
   run; [moves] names the end-to-end metric and workload each one
   should move, and [exact] marks the counts that repeat exactly for a
   seed (the self-check compares them). *)

type def = {
  name : string;
  unit_ : string;
  better : string;
  moves : string;
  exact : bool;
}

let d ?(exact = false) name unit_ better moves = { name; unit_; better; moves; exact }

let end_to_end =
  [
    d "op_ms_p50" "ms" "lower" "";
    d "op_ms_p99" "ms" "lower" "";
    d "ops_per_s" "1/s" "higher" "";
    d "ok_ops_share" "share" "higher" "";
    d "setup_s" "s" "lower" "";
    d "peak_heap_mb" "MB" "lower" "";
  ]

let compile_p50 = "op_ms_p50@compile"

let static_moves = "op_ms_p50@compile, op_ms_p50@serve"

let sim_p50 = "op_ms_p50@simulate"

let per_layer =
  [
    d "minilang.parse_ms" "ms" "lower" static_moves;
    d "minilang.validate_ms" "ms" "lower" static_moves;
    d "cfg.build_ms" "ms" "lower" compile_p50;
    d ~exact:true "cfg.nodes" "count" "lower" compile_p50;
    d "parcoach.pword_ms" "ms" "lower" "op_ms_p99@compile, op_ms_p50@serve";
    d "parcoach.phase1_ms" "ms" "lower" "op_ms_p99@compile, op_ms_p50@serve";
    d "parcoach.phase2_ms" "ms" "lower" "op_ms_p99@compile, op_ms_p50@serve";
    d "parcoach.phase3_ms" "ms" "lower" "op_ms_p99@compile, op_ms_p50@serve";
    d "parcoach.races_ms" "ms" "lower" "op_ms_p99@compile, op_ms_p50@serve";
    d "parcoach.requests_ms" "ms" "lower" "op_ms_p99@compile, op_ms_p50@serve";
    d "parcoach.instrument_ms" "ms" "lower" compile_p50;
    d ~exact:true "parcoach.cc_sites" "count" "lower" compile_p50;
    d "parcoach.json_report_ms" "ms" "lower" compile_p50;
    d ~exact:true "parcoach.report_bytes" "bytes" "lower" compile_p50;
    d "interp.lower_ms" "ms" "lower" "ops_per_s@farm";
    d "interp.sim_ms" "ms" "lower" "op_ms_p50@simulate, ops_per_s@farm";
    d ~exact:true "interp.sim_steps" "count" "lower" "op_ms_p50@simulate, ops_per_s@farm";
    d "interp.steps_per_s" "1/s" "higher" "op_ms_p50@simulate, ops_per_s@farm";
    d ~exact:true "interp.tasks_spawned" "count" "lower" "op_ms_p50@simulate, ops_per_s@farm";
    d "interp.explore_ms" "ms" "lower" "op_ms_p99@simulate";
    d ~exact:true "interp.explore_replays" "count" "lower" "op_ms_p99@simulate";
    d ~exact:true "interp.explore_replay_share" "share" "lower" "op_ms_p99@simulate";
    d "interp.dpor_ms" "ms" "lower" "op_ms_p99@simulate";
    d ~exact:true "interp.dpor_replays" "count" "lower" "op_ms_p99@simulate";
    d ~exact:true "interp.dpor_useful_share" "share" "higher" "op_ms_p99@simulate";
    d ~exact:true "mpisim.collectives" "count" "lower" sim_p50;
    d ~exact:true "mpisim.cc_checks" "count" "lower" sim_p50;
    (* Streamed runs are checked outside simulate's timed region. *)
    d "mustlike.stream_wait_ms" "ms" "lower" "";
    d ~exact:true "mustlike.stream_events" "count" "lower" "";
    d "mustlike.stream_max_in_flight" "count" "lower" "";
    d "mustlike.overlay_ms" "ms" "lower" "op_ms_p50@simulate, peak_heap_mb@simulate";
    d "serve.json_decode_ms" "ms" "lower" "op_ms_p50@serve, op_ms_p99@serve";
    d "serve.handle_ms" "ms" "lower" "op_ms_p50@serve, op_ms_p99@serve";
    d "serve.json_encode_ms" "ms" "lower" "op_ms_p50@serve, op_ms_p99@serve";
    d ~exact:true "serve.cache_hit_share" "share" "higher" "op_ms_p50@serve, op_ms_p99@serve";
    d ~exact:true "serve.cache_evictions" "count" "lower" "op_ms_p50@serve, op_ms_p99@serve";
    d ~exact:true "serve.funcs_reanalysed" "count" "lower" "op_ms_p50@serve, op_ms_p99@serve";
    d "farm.gen_ms" "ms" "lower" "ops_per_s@farm";
    d "farm.fingerprint_ms" "ms" "lower" "ops_per_s@farm";
    d "farm.static_ms" "ms" "lower" "ops_per_s@farm";
    d "farm.compile_ms" "ms" "lower" "ops_per_s@farm";
    d "farm.simulate_ms" "ms" "lower" "ops_per_s@farm";
    d ~exact:true "farm.unique_share" "share" "lower" "ops_per_s@farm";
    d ~exact:true "farm.cache_hit_share" "share" "higher" "ops_per_s@farm";
    d ~exact:true "farm.cc_elided_share" "share" "higher" "ops_per_s@farm";
    d "farm.stolen_batches" "count" "lower" "ops_per_s@farm";
    d "gc.minor_mwords" "Mwords" "lower" "peak_heap_mb, ops_per_s (same workload)";
    d "gc.major_collections" "count" "lower" "peak_heap_mb, ops_per_s (same workload)";
    d "trace.overhead_share" "share" "lower" "";
    d "trace.ops" "count" "higher" "";
  ]

(* JSON numbers: every digit the float has; never NaN or infinity. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The result object: [values] must cover every metric of [defs]. *)
let result_line ~correct ~attempted ~failed defs values =
  let metric def =
    let v = Option.value ~default:0. (List.assoc_opt def.name values) in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" def.name (number v) def.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric defs))

(* The metric table with the e2e metric each per-layer metric moves. *)
let describe () =
  List.iter
    (fun def -> Printf.printf "e2e        %-32s %-7s %s\n" def.name def.unit_ def.better)
    end_to_end;
  List.iter
    (fun def ->
      Printf.printf "per-layer  %-32s %-7s %-7s -> %s\n" def.name def.unit_
        def.better
        (if def.moves = "" then "-" else def.moves))
    per_layer

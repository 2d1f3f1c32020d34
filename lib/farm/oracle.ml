(** Differential oracle (see the interface). *)

type sim_spec = {
  nranks : int;
  nthreads : int;
  seeds : int list;
  max_steps : int;
}

let default_sim =
  { nranks = 2; nthreads = 2; seeds = [ 1; 2; 3; 4; 5; 6 ]; max_steps = 200_000 }

let options =
  {
    Parcoach.Driver.default_options with
    races = true;
    interprocedural = true;
    taint_filter = true;
  }

type handicap = Drop_race_edge | Blind_mismatch

let handicap_name = function
  | Drop_race_edge -> "drop-race-edge"
  | Blind_mismatch -> "blind-mismatch"

let handicap_of_name = function
  | "drop-race-edge" -> Some Drop_race_edge
  | "blind-mismatch" -> Some Blind_mismatch
  | _ -> None

type violation = { vkind : string; seed : int; detail : string }

type dyn = {
  plain : string list;
  cc : string list option;
  races : (string * string * string) list;
}

type obs = {
  static_warnings : int;
  static_classes : (string * int) list;
  static_races : int;
  plain : string list;
  cc : string list option;
  dyn_races : int;
  violations : violation list;
}

let obs_agree a b =
  let cc_agree =
    match (a.cc, b.cc) with
    | Some x, Some y -> List.equal String.equal x y
    | None, _ | _, None -> true
  in
  a.static_warnings = b.static_warnings
  && a.static_classes = b.static_classes
  && a.static_races = b.static_races
  && List.equal String.equal a.plain b.plain
  && cc_agree
  && a.dyn_races = b.dyn_races
  && a.violations = b.violations

(* A race key names its two sites in string order, as [Interp.Raceck]
   orders the sites of an observed race. *)
let static_race_keys report =
  List.filter_map
    (fun (w : Parcoach.Warning.t) ->
      match w.Parcoach.Warning.kind with
      | Parcoach.Warning.Data_race { var; loc1; loc2; _ } ->
          let s1 = Minilang.Loc.to_string loc1 in
          let s2 = Minilang.Loc.to_string loc2 in
          Some (if s1 <= s2 then (var, s1, s2) else (var, s2, s1))
      | _ -> None)
    (Parcoach.Driver.all_warnings report)

let dynamic_race_keys oracle =
  List.map
    (fun (r : Interp.Raceck.race) -> (r.rc_var, r.rc_site1, r.rc_site2))
    (Interp.Raceck.races oracle)

(** Simulator configuration for one seeded run of [sim] (trace
    recording off — the farm keeps nothing per step). *)
let config_of ~sim seed =
  {
    Interp.Sim.default_config with
    nranks = sim.nranks;
    default_nthreads = sim.nthreads;
    schedule = `Random seed;
    max_steps = sim.max_steps;
    record_trace = false;
  }

let cli_config_of ~sim seed =
  { (config_of ~sim seed) with Interp.Sim.record_trace = true }

let class_count classes name =
  match List.assoc_opt name classes with Some n -> n | None -> 0

(** Warning count after applying the handicap (what the judge calls
    "effectively clean" when 0). *)
let effective_warnings ?handicap classes =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 classes in
  match handicap with
  | Some Blind_mismatch -> total - class_count classes "collective mismatch"
  | _ -> total

(** Run the dynamic side: compiles each form once and shares it across
    seeds; the bare runs carry the race oracle.  [instrumented] is
    forced — and its program compiled and run — only when
    [need_cc ~plain] says the judge will consult the CC outcomes.
    [timings] accumulates the [compile] and [simulate] stages. *)
let dynamic ?timings ~sim ~bare ~instrumented ~need_cc () =
  (* One lowering per form, shared across every seed. *)
  let bare_c =
    Parcoach.Timings.record_opt timings "compile" (fun () ->
        Interp.Sim.make bare)
  in
  let races = ref [] in
  let plain =
    Parcoach.Timings.record_opt timings "simulate" @@ fun () ->
    List.map
      (fun seed ->
        let oracle = Interp.Raceck.create () in
        let r =
          Interp.Sim.run_compiled ~config:(config_of ~sim seed) ~race:oracle
            bare_c
        in
        races := List.rev_append (dynamic_race_keys oracle) !races;
        Interp.Explore.class_name r.Interp.Sim.outcome)
      sim.seeds
  in
  (* Demand-driven CC: instrument, compile and run the checked form only
     when the judge will consult its outcomes. *)
  let cc =
    if not (need_cc ~plain) then None
    else begin
      let instr = instrumented () in
      let instr_c =
        Parcoach.Timings.record_opt timings "compile" (fun () ->
            Interp.Sim.make instr)
      in
      Some
        ( Parcoach.Timings.record_opt timings "simulate" @@ fun () ->
          List.map
            (fun seed ->
              let r =
                Interp.Sim.run_compiled ~config:(config_of ~sim seed) instr_c
              in
              Interp.Explore.class_name r.Interp.Sim.outcome)
            sim.seeds )
    end
  in
  { plain; cc; races = List.sort_uniq compare !races }

let judge ?handicap ~classes ~race_keys (dyn : dyn) =
  let race_keys =
    match handicap with
    | Some Drop_race_edge -> (
        match List.sort compare race_keys with [] -> [] | _ :: tl -> tl)
    | _ -> race_keys
  in
  let clean = effective_warnings ?handicap classes = 0 in
  let stopped tag = not (String.equal tag "finished") in
  let cc = Option.value dyn.cc ~default:[] in
  let violations = ref [] in
  let add vkind seed detail = violations := { vkind; seed; detail } :: !violations in
  List.iter
    (fun ((var, s1, s2) as k) ->
      if not (List.mem k race_keys) then
        add "race-uncovered" (-1)
          (Printf.sprintf "dynamic race on %s (%s / %s) has no static pair" var
             s1 s2))
    dyn.races;
  List.iteri
    (fun idx tag ->
      if clean && stopped tag then
        add "static-clean-run-stop" idx
          (Printf.sprintf "statically clean but bare run %s" tag))
    dyn.plain;
  List.iteri
    (fun idx tag ->
      if clean && stopped tag then
        add "static-clean-cc-stop" idx
          (Printf.sprintf "statically clean but CC-instrumented run %s" tag))
    cc;
  List.iteri
    (fun idx plain_tag ->
      match List.nth_opt cc idx with
      | Some cc_tag
        when String.equal plain_tag "deadlock"
             && String.equal cc_tag "deadlock" ->
          add "cc-missed-deadlock" idx
            "bare run deadlocks and exhaustive CC still deadlocks"
      | _ -> ())
    dyn.plain;
  List.rev !violations

let judged ?handicap ~report (dyn : dyn) =
  let classes = Parcoach.Driver.warnings_by_class report in
  let race_keys = static_race_keys report in
  {
    static_warnings = Parcoach.Driver.warning_count report;
    static_classes = classes;
    static_races = List.length race_keys;
    plain = dyn.plain;
    cc = dyn.cc;
    dyn_races = List.length dyn.races;
    violations = judge ?handicap ~classes ~race_keys dyn;
  }

let observe ?handicap ?timings ~sim ~report program =
  let clean =
    effective_warnings ?handicap (Parcoach.Driver.warnings_by_class report) = 0
  in
  let instrumented () =
    Parcoach.Timings.record_opt timings "instrument" (fun () ->
        Parcoach.Instrument.instrument report Parcoach.Instrument.Exhaustive)
  in
  (* The judge consults CC outcomes only for effectively-clean programs
     ("statically clean but CC run stops") and for bare deadlocks ("CC
     missed the deadlock") — everything else skips instrumentation,
     exactly the paper's static-analysis-pays-for-less-instrumentation
     trade. *)
  let need_cc ~plain =
    clean || List.exists (String.equal "deadlock") plain
  in
  judged ?handicap ~report
    (dynamic ?timings ~sim ~bare:program ~instrumented ~need_cc ())

let violation_to_string v =
  Printf.sprintf "%s (seed %d): %s" v.vkind v.seed v.detail

let obs_to_string o =
  Printf.sprintf
    "warnings=%d [%s] static_races=%d plain=[%s] cc=%s dyn_races=%d%s"
    o.static_warnings
    (String.concat ","
       (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) o.static_classes))
    o.static_races
    (String.concat "," o.plain)
    (match o.cc with
    | None -> "elided"
    | Some cc -> "[" ^ String.concat "," cc ^ "]")
    o.dyn_races
    (match o.violations with
    | [] -> ""
    | vs ->
        " VIOLATIONS: "
        ^ String.concat "; " (List.map violation_to_string vs))

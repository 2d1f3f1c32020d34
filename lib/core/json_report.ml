(** Machine-readable (JSON) rendering of analysis reports, for CI
    integration of the [parcoachc] tool.  Self-contained emitter — no
    external JSON dependency. *)

open Minilang

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = Printf.sprintf "\"%s\"" (escape s)

(* [obj] and [arr] make one concatenation of all their pieces: a
   report's ["functions"] member is copied once per nesting level, not
   three times. *)
let obj fields =
  let rec pieces = function
    | [] -> [ "}" ]
    | [ (k, v) ] -> [ str k; ":"; v; "}" ]
    | (k, v) :: rest -> str k :: ":" :: v :: "," :: pieces rest
  in
  String.concat "" ("{" :: pieces fields)

let arr items =
  let rec pieces = function
    | [] -> [ "]" ]
    | [ v ] -> [ v; "]" ]
    | v :: rest -> v :: "," :: pieces rest
  in
  String.concat "" ("[" :: pieces items)

let timings_json t =
  obj
    (List.map
       (fun (phase, ns) -> (phase, Printf.sprintf "%.0f" ns))
       (Timings.entries t))

let loc_json (l : Loc.t) =
  obj
    [
      ("file", str l.Loc.file);
      ("line", string_of_int l.Loc.line);
      ("col", string_of_int l.Loc.col);
    ]

let warning_json (w : Warning.t) =
  let base =
    [
      ("class", str (Warning.class_of w.Warning.kind));
      ("function", str w.Warning.func);
      ("loc", loc_json w.Warning.loc);
      ("message", str (Warning.to_string w));
    ]
  in
  let extra =
    match w.Warning.kind with
    | Warning.Multithreaded_collective { coll; word; required } ->
        [
          ("collective", str coll);
          ("parallelism_word", str (Pword.to_string word));
          ("required_level", str (Mpisim.Thread_level.to_string required));
        ]
    | Warning.Concurrent_collectives { coll1; loc1; coll2; loc2; region1; region2 } ->
        [
          ( "collectives",
            arr
              [
                obj [ ("name", str coll1); ("loc", loc_json loc1) ];
                obj [ ("name", str coll2); ("loc", loc_json loc2) ];
              ] );
          ("regions", arr [ string_of_int region1; string_of_int region2 ]);
        ]
    | Warning.Collective_mismatch { coll; sites; conds } ->
        [
          ("collective", str coll);
          ("call_sites", arr (List.map loc_json sites));
          ("conditionals", arr (List.map loc_json conds));
        ]
    | Warning.Level_insufficient { coll; required; provided } ->
        [
          ("collective", str coll);
          ("required_level", str (Mpisim.Thread_level.to_string required));
          ("provided_level", str (Mpisim.Thread_level.to_string provided));
        ]
    | Warning.Word_inconsistency { word_a; word_b } ->
        [
          ("word_a", str (Pword.to_string word_a));
          ("word_b", str (Pword.to_string word_b));
        ]
    | Warning.Data_race
        { var; write1; loc1; write2; loc2; feeds_collective; advice } ->
        let access w l =
          obj
            [
              ("kind", str (if w then "write" else "read"));
              ("loc", loc_json l);
            ]
        in
        [
          ("variable", str var);
          ("accesses", arr [ access write1 loc1; access write2 loc2 ]);
          ("feeds_collective", if feeds_collective then "true" else "false");
          ("advice", str advice);
        ]
    | Warning.Request_leak { req; rop; started } ->
        [
          ("request", str req);
          ("operation", str rop);
          ("start_sites", arr (List.map loc_json started));
        ]
    | Warning.Request_double_wait { req; prior } ->
        [
          ("request", str req);
          ("prior_completions", arr (List.map loc_json prior));
        ]
    | Warning.Request_stale_buffer { req; var; write; started } ->
        [
          ("request", str req);
          ("buffer", str var);
          ("access", str (if write then "write" else "read"));
          ("start_sites", arr (List.map loc_json started));
        ]
    | Warning.Request_completion_mismatch { req; coll; sites; conds } ->
        [
          ("request", str req);
          ("collective", str coll);
          ("wait_sites", arr (List.map loc_json sites));
          ("conditionals", arr (List.map loc_json conds));
        ]
  in
  obj (base @ extra)

let issue_json (i : Validate.issue) =
  obj
    [
      ( "severity",
        str
          (match i.Validate.severity with
          | Validate.Error -> "error"
          | Validate.Warning -> "warning") );
      ("loc", loc_json i.Validate.loc);
      ("message", str i.Validate.message);
    ]

(** Validation issues as a JSON array (the [issues] field of both the
    [parcoachc --json] output and the daemon protocol responses). *)
let issues_json issues = arr (List.map issue_json issues)

(** The whole-object rendering of a program that failed validation:
    [{"valid":false,"issues":[...]}], the single format machine consumers
    see on [parcoachc --json]'s stdout and in daemon responses. *)
let invalid_to_string issues =
  obj [ ("valid", "false"); ("issues", issues_json issues) ]

(** One entry of the report's ["functions"] array: a function's warnings
    and check counts. *)
let func_json (fr : Driver.func_report) =
  obj
    [
      ("name", str fr.Driver.fname);
      ("warnings", arr (List.map warning_json fr.Driver.warnings));
      ( "collective_sites",
        string_of_int (List.length (Cfg.Graph.collective_nodes fr.Driver.graph)) );
      ("cc_sites", string_of_int (List.length fr.Driver.cc_sites));
      ( "multithreaded_collectives",
        string_of_int (List.length fr.Driver.phase1.Monothread.s_mt) );
      ( "concurrent_pairs",
        string_of_int (List.length fr.Driver.phase2.Concurrency.pairs) );
      ( "race_pairs",
        string_of_int
          (match fr.Driver.races with
          | None -> 0
          | Some r -> List.length r.Races.pairs) );
      ( "request_findings",
        string_of_int
          (match fr.Driver.requests with
          | None -> 0
          | Some r -> List.length r.Requests.findings) );
    ]

(** The whole report as a single JSON object: per-function warnings and
    check counts, plus totals by class. *)
let report_json ?issues ?(func_json = func_json) (report : Driver.report) =
  let funcs = List.map func_json report.Driver.funcs in
  let by_class =
    List.map
      (fun (cls, n) -> obj [ ("class", str cls); ("count", string_of_int n) ])
      (Driver.warnings_by_class report)
  in
  let validity =
    (* Only present when the caller hands over the validation issues:
       existing consumers comparing raw reports keep their byte format. *)
    match issues with
    | None -> []
    | Some issues -> [ ("valid", "true"); ("issues", issues_json issues) ]
  in
  obj
    (validity
    @ [
        ("total_warnings", string_of_int (Driver.warning_count report));
        ("warnings_by_class", arr by_class);
        ("functions", arr funcs);
      ])

let to_string = report_json

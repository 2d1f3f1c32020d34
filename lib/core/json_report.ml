(** Machine-readable (JSON) rendering of analysis reports, for CI
    integration of the [parcoachc] tool.  Self-contained emitter — no
    external JSON dependency. *)

open Minilang

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* The offset of the first byte at or after [i] that needs escaping, or
   the length of [s].  Eight bytes at a time while none does: a byte of
   [w] equals [c] when [w lxor c...c] has a zero byte, and is below 0x20
   when [w - 0x20...20] borrows into its high bit while [w]'s is clear. *)
let next_escape s i =
  let n = String.length s in
  let i = ref i in
  while
    !i + 8 <= n
    &&
    let w = get64u s !i in
    let q = Int64.logxor w 0x2222222222222222L
    and b = Int64.logxor w 0x5C5C5C5C5C5C5C5CL in
    Int64.logand
      (Int64.logor
         (Int64.logor
            (Int64.logand (Int64.sub q 0x0101010101010101L) (Int64.lognot q))
            (Int64.logand (Int64.sub b 0x0101010101010101L) (Int64.lognot b)))
         (Int64.logand (Int64.sub w 0x2020202020202020L) (Int64.lognot w)))
      0x8080808080808080L
    = 0L
  do
    i := !i + 8
  done;
  while
    !i < n
    &&
    let c = String.unsafe_get s !i in
    c <> '"' && c <> '\\' && c >= ' '
  do
    incr i
  done;
  !i

(* The offsets of the bytes to escape in the string being encoded:
   scratch space kept per domain, like the decoder's in [Serve.Json]. *)
let escapes = Domain.DLS.new_key (fun () -> ref (Array.make 256 0))

let hex = "0123456789abcdef"

(* [s] escaped from its first escape at [first], between quotes when
   [quotes] is 1: one scan records every escape and adds up the length,
   then one exact-size string is filled by blitting the plain runs
   between them. *)
let escaped ~quotes s first =
  let n = String.length s in
  let esc = Domain.DLS.get escapes in
  let nesc = ref 0 and len = ref (n + (2 * quotes)) in
  let i = ref first in
  while !i < n do
    if !nesc = Array.length !esc then begin
      let grown = Array.make (2 * !nesc) 0 in
      Array.blit !esc 0 grown 0 !nesc;
      esc := grown
    end;
    Array.unsafe_set !esc !nesc !i;
    incr nesc;
    (len :=
       !len
       +
       match String.unsafe_get s !i with
       | '"' | '\\' | '\n' | '\t' | '\r' -> 1
       | _ -> 5);
    i := next_escape s (!i + 1)
  done;
  let b = Bytes.create !len in
  let o = ref quotes and from = ref 0 in
  for e = 0 to !nesc - 1 do
    let p = Array.unsafe_get !esc e in
    Bytes.unsafe_blit_string s !from b !o (p - !from);
    o := !o + (p - !from);
    Bytes.unsafe_set b !o '\\';
    (match String.unsafe_get s p with
    | ('"' | '\\') as c -> Bytes.unsafe_set b (!o + 1) c
    | '\n' -> Bytes.unsafe_set b (!o + 1) 'n'
    | '\t' -> Bytes.unsafe_set b (!o + 1) 't'
    | '\r' -> Bytes.unsafe_set b (!o + 1) 'r'
    | c ->
        Bytes.blit_string "u00" 0 b (!o + 1) 3;
        Bytes.unsafe_set b (!o + 4) hex.[Char.code c lsr 4];
        Bytes.unsafe_set b (!o + 5) hex.[Char.code c land 15];
        o := !o + 4);
    o := !o + 2;
    from := p + 1
  done;
  Bytes.unsafe_blit_string s !from b !o (n - !from);
  if quotes = 1 then begin
    Bytes.unsafe_set b 0 '"';
    Bytes.unsafe_set b (!len - 1) '"'
  end;
  Bytes.unsafe_to_string b

let escape s =
  let first = next_escape s 0 in
  if first = String.length s then s else escaped ~quotes:0 s first

let str s = escaped ~quotes:1 s (next_escape s 0)

(* [obj] and [arr] make one concatenation of all their pieces. *)
let obj fields =
  let rec pieces = function
    | [] -> [ "}" ]
    | [ (k, v) ] -> [ str k; ":"; v; "}" ]
    | (k, v) :: rest -> str k :: ":" :: v :: "," :: pieces rest
  in
  String.concat "" ("{" :: pieces fields)

(* An array's pieces, then [tail]. *)
let arr_pieces items tail =
  let rec pieces = function
    | [] -> "]" :: tail
    | [ v ] -> v :: "]" :: tail
    | v :: rest -> v :: "," :: pieces rest
  in
  "[" :: pieces items

let arr items = String.concat "" (arr_pieces items [])

let timings_json t =
  obj
    (List.map
       (fun (phase, ns) -> (phase, string_of_int (Float.to_int (Float.round ns))))
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
let to_string ?issues ?fragments (report : Driver.report) =
  let funcs =
    match fragments with
    | Some fragments -> fragments
    | None -> List.map func_json report.Driver.funcs
  in
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
  (* The ["functions"] array, the bulk of a report, goes in as pieces:
     the whole report is one concatenation. *)
  String.concat ""
    ("{"
     :: List.concat_map
          (fun (k, v) -> [ str k; ":"; v; "," ])
          (validity
          @ [
              ("total_warnings", string_of_int (Driver.warning_count report));
              ("warnings_by_class", arr by_class);
            ])
    @ str "functions" :: ":" :: arr_pieces funcs [ "}" ])

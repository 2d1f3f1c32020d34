(** Tests for the [parcoachd] serve layer: the JSON codec, the source
    chunker, the content-hashed summary keys, warm/cold report identity
    through the daemon, the worker pool, and [Driver.analyze ?reuse]. *)

open Minilang
module Gen = QCheck.Gen

let serve_options =
  {
    Parcoach.Driver.default_options with
    Parcoach.Driver.taint_filter = true;
    interprocedural = true;
    races = true;
  }

(* A small interprocedural program used by the cache-key tests: [main]
   calls [helper], [helper] calls [leaf]; [loner] is unrelated. *)
let base_source =
  "func leaf() {\n\
  \  MPI_Barrier();\n\
   }\n\
   func helper() {\n\
  \  leaf();\n\
   }\n\
   func loner() {\n\
  \  var t = 1;\n\
  \  t = MPI_Allreduce(t, sum);\n\
   }\n\
   func main() {\n\
  \  helper();\n\
  \  MPI_Barrier();\n\
   }\n"

let parse source = Parser.parse_string ~file:"test.hml" source

(* First-occurrence substring replacement (enough for these tests; no
   regexp library needed). *)
let replace ~sub ~by s =
  let rec find i =
    if i + String.length sub > String.length s then
      Alcotest.failf "replace: %s not found" sub
    else if String.equal (String.sub s i (String.length sub)) sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by
  ^ String.sub s
      (i + String.length sub)
      (String.length s - i - String.length sub)

let keys_of source =
  List.map
    (fun (f, k) -> (f.Ast.fname, k))
    (Serve.Hash.keys ~options:serve_options (parse source))

let key tbl name =
  match List.assoc_opt name tbl with
  | Some k -> k
  | None -> Alcotest.failf "no key for %s" name

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let rec json_equal a b =
  match (a, b) with
  | Serve.Json.Null, Serve.Json.Null -> true
  | Serve.Json.Bool x, Serve.Json.Bool y -> x = y
  | Serve.Json.Int x, Serve.Json.Int y -> x = y
  | Serve.Json.Float x, Serve.Json.Float y -> x = y
  | Serve.Json.Str x, Serve.Json.Str y -> String.equal x y
  | Serve.Json.List x, Serve.Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Serve.Json.Obj x, Serve.Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && json_equal va vb)
           x y
  | _ -> false

let test_json_roundtrip () =
  let v =
    Serve.Json.Obj
      [
        ("id", Serve.Json.Int 7);
        ("pi", Serve.Json.Float 3.5);
        ("name", Serve.Json.Str "a \"quoted\"\n\tstring \\ with\rescapes");
        ("flag", Serve.Json.Bool true);
        ("nothing", Serve.Json.Null);
        ( "items",
          Serve.Json.List
            [ Serve.Json.Int 1; Serve.Json.Str ""; Serve.Json.Bool false ] );
        ("empty_obj", Serve.Json.Obj []);
        ("empty_list", Serve.Json.List []);
      ]
  in
  match Serve.Json.parse (Serve.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (json_equal v v')
  | Error msg -> Alcotest.failf "round trip failed: %s" msg

let test_json_unicode () =
  match Serve.Json.parse {|{"s":"café ✓"}|} with
  | Ok v ->
      Alcotest.(check (option string))
        "utf8 decoding"
        (Some "caf\xc3\xa9 \xe2\x9c\x93")
        (Option.bind (Serve.Json.member "s" v) Serve.Json.to_str)
  | Error msg -> Alcotest.failf "unicode parse failed: %s" msg

let test_json_errors () =
  let bad s =
    match Serve.Json.parse s with
    | Ok _ -> Alcotest.failf "expected parse error for %s" s
    | Error _ -> ()
  in
  bad "{\"a\":1} trailing";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "nul"

let test_json_raw_splice () =
  let v =
    Serve.Json.Obj
      [ ("ok", Serve.Json.Bool true); ("report", Serve.Json.Raw {|{"n":1}|}) ]
  in
  Alcotest.(check string)
    "raw spliced verbatim" {|{"ok":true,"report":{"n":1}}|}
    (Serve.Json.to_string v)

(* ------------------------------------------------------------------ *)
(* Chunker                                                             *)
(* ------------------------------------------------------------------ *)

let locs_of_program (p : Ast.program) =
  List.concat_map
    (fun f -> f.Ast.floc :: List.map (fun s -> s.Ast.sloc) (Ast.stmts_of_func f))
    p.Ast.funcs

let chunked_parse ~file source =
  match Serve.Chunker.split source with
  | { Serve.Chunker.clean = false; _ } -> None
  | { Serve.Chunker.chunks; _ } ->
      Some
        {
          Ast.funcs =
            List.map
              (fun (c : Serve.Chunker.chunk) ->
                match (Parser.parse_string ~file:"" c.Serve.Chunker.text).Ast.funcs with
                | [ f ] ->
                    Serve.Chunker.shift_func ~file ~line:c.Serve.Chunker.line
                      ~col:c.Serve.Chunker.col f
                | _ -> Alcotest.fail "chunk is not a single function")
              chunks;
        }

let check_chunked_equals_direct source =
  let direct = parse source in
  match chunked_parse ~file:"test.hml" source with
  | None -> Alcotest.fail "splitter rejected a clean source"
  | Some via_chunks ->
      Alcotest.(check bool)
        "chunked parse structurally equal" true
        (Ast.equal_program direct via_chunks);
      Alcotest.(check bool)
        "chunked parse locations equal" true
        (List.for_all2 Loc.equal (locs_of_program direct)
           (locs_of_program via_chunks))

let test_chunker_equals_direct () =
  check_chunked_equals_direct base_source;
  (* Comments (with a decoy 'func' keyword), blank lines, and a closing
     brace sharing a line with the next function's keyword. *)
  check_chunked_equals_direct
    "// leading comment, func decoy\n\n\
     func one() {\n\
  \  /* block comment { with braces } and func decoy */\n\
  \  MPI_Barrier();\n\
     }\n\n\
     func two() { MPI_Barrier(); }\n\
     func three() {\n\
  \  two();\n\
     }\n"

let test_chunker_fallback () =
  let unclean source =
    let { Serve.Chunker.clean; _ } = Serve.Chunker.split source in
    Alcotest.(check bool) (Printf.sprintf "unclean: %s" source) false clean
  in
  unclean "garbage func main() { }";
  unclean "func broken() {";
  unclean "func broken() { } }";
  unclean "func c() { } /* unterminated";
  unclean ""

(* Pinned scans: [clean], then each chunk's text, line and column. *)
let check_split label source ~clean expected =
  let { Serve.Chunker.clean = c; chunks } = Serve.Chunker.split source in
  Alcotest.(check bool) (label ^ ": clean") clean c;
  Alcotest.(check (list (triple string int int)))
    (label ^ ": chunks") expected
    (List.map
       (fun (ch : Serve.Chunker.chunk) ->
         (ch.Serve.Chunker.text, ch.Serve.Chunker.line, ch.Serve.Chunker.col))
       chunks)

let test_chunker_edge_cases () =
  (* [func] inside an identifier is not a boundary. *)
  let ids = "func funcx() {\n}\nfunc myfunc() {\n  funcx();\n}\n" in
  check_split "funcx/myfunc" ids ~clean:true
    [ ("func funcx() {\n}\n", 1, 1); ("func myfunc() {\n  funcx();\n}\n", 3, 1) ];
  check_chunked_equals_direct ids;
  check_split "myfunc at top level" "myfunc() { }" ~clean:false [];
  (* A bare [func] at the end of the file is a boundary of its own; its
     chunk does not parse, so the daemon falls back to the whole file. *)
  check_split "func at EOF" "func a() { }\nfunc" ~clean:true
    [ ("func a() { }\n", 1, 1); ("func", 2, 1) ];
  (* CR and tab are ordinary one-column characters, as in the lexer. *)
  let crlf = "func a() {\r\n\tMPI_Barrier();\r\n}\r\n\tfunc b() {\r\n}\r\n" in
  check_split "CRLF and tabs" crlf ~clean:true
    [
      ("func a() {\r\n\tMPI_Barrier();\r\n}\r\n\t", 1, 1);
      ("func b() {\r\n}\r\n", 4, 2);
    ];
  check_chunked_equals_direct crlf;
  check_split "unterminated block comment in a body"
    "func a() { /* open }\n" ~clean:false
    [ ("func a() { /* open }\n", 1, 1) ];
  check_split "line comment on the last line" "func a() {\n}\n// end" ~clean:true
    [ ("func a() {\n}\n// end", 1, 1) ];
  check_chunked_equals_direct "func a() {\n}\n// end";
  (* Stray tokens before the first function make the scan unclean; after
     it they stay in the chunk, whose parse then fails. *)
  check_split "stray token first" "; func a() { }" ~clean:false
    [ ("func a() { }", 1, 3) ];
  check_split "stray token after" "func a() { } ;\nfunc b() { }" ~clean:true
    [ ("func a() { } ;\n", 1, 1); ("func b() { }", 2, 1) ]

let prop_chunker_roundtrip =
  QCheck.Test.make ~name:"chunked parse = direct parse (incl. locations)"
    ~count:40 Test_qcheck.arb_program (fun p ->
      let source = Pretty.program_to_string p in
      let direct = parse source in
      match chunked_parse ~file:"test.hml" source with
      | None -> false
      | Some via_chunks ->
          Ast.equal_program direct via_chunks
          && List.for_all2 Loc.equal (locs_of_program direct)
               (locs_of_program via_chunks))

(* ------------------------------------------------------------------ *)
(* Summary-cache keys                                                  *)
(* ------------------------------------------------------------------ *)

let test_keys_ignore_layout () =
  let base = keys_of base_source in
  (* Inserting comments and blank lines shifts every location but no
     key. *)
  let commented =
    "// a new leading comment\n\n"
    ^ String.concat "\n// mid comment\n"
        [ base_source; "func extra_unused() {\n  MPI_Barrier();\n}\n" ]
  in
  let shifted = keys_of commented in
  List.iter
    (fun (name, k) ->
      Alcotest.(check string) (name ^ " key unchanged") k (key shifted name))
    base

let test_keys_ignore_unrelated () =
  let base = keys_of base_source in
  (* Renaming [loner] (referenced by nobody) leaves the other keys
     alone. *)
  let renamed = replace ~sub:"loner" ~by:"renamed_loner" base_source in
  let renamed_keys = keys_of renamed in
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " key survives unrelated rename")
        (key base name) (key renamed_keys name))
    [ "leaf"; "helper"; "main" ];
  (* Reordering functions changes no key. *)
  let p = parse base_source in
  let reordered =
    Pretty.program_to_string { Ast.funcs = List.rev p.Ast.funcs }
  in
  let reordered_keys = keys_of reordered in
  List.iter
    (fun (name, k) ->
      Alcotest.(check string) (name ^ " key survives reorder") k
        (key reordered_keys name))
    base

let test_keys_track_bodies () =
  let base = keys_of base_source in
  (* Editing [leaf]'s body invalidates leaf and its transitive callers
     (helper, main) but not the unrelated [loner]. *)
  let edited =
    replace
      ~sub:"func leaf() {\n  MPI_Barrier();\n}"
      ~by:"func leaf() {\n  MPI_Barrier();\n  MPI_Barrier();\n}" base_source
  in
  let edited_keys = keys_of edited in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " key invalidated by callee edit")
        false
        (String.equal (key base name) (key edited_keys name)))
    [ "leaf"; "helper"; "main" ];
  Alcotest.(check string)
    "loner key untouched by leaf edit" (key base "loner")
    (key edited_keys "loner");
  (* Different analysis options give different keys for every function. *)
  let other_options =
    List.map
      (fun (f, k) -> (f.Ast.fname, k))
      (Serve.Hash.keys ~options:Parcoach.Driver.default_options
         (parse base_source))
  in
  List.iter
    (fun (name, k) ->
      Alcotest.(check bool)
        (name ^ " key depends on options")
        false
        (String.equal k (key other_options name)))
    base

let prop_keys_location_insensitive =
  QCheck.Test.make ~name:"summary keys ignore locations" ~count:40
    Test_qcheck.arb_program (fun p ->
      let reparsed = parse (Pretty.program_to_string p) in
      List.for_all2
        (fun (a, ka) (b, kb) ->
          String.equal a.Ast.fname b.Ast.fname && String.equal ka kb)
        (Serve.Hash.keys ~options:serve_options p)
        (Serve.Hash.keys ~options:serve_options reparsed))

(* ------------------------------------------------------------------ *)
(* Daemon: warm = cold, incrementality, relocation                     *)
(* ------------------------------------------------------------------ *)

let analysis_exn label = function
  | Ok (a : Serve.Daemon.analysis) -> a
  | Error _ -> Alcotest.failf "%s: analysis failed validation" label

let cold_json source =
  Parcoach.Json_report.to_string
    (Parcoach.Driver.analyze ~options:serve_options ~jobs:1
       (Parser.parse_string ~file:"warm.hml" source))

let test_daemon_warm_identity () =
  let daemon = Serve.Daemon.create () in
  let seed =
    analysis_exn "seed"
      (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
         ~file:"warm.hml" base_source)
  in
  Alcotest.(check int) "cold request analyses everything" 0
    seed.Serve.Daemon.reused;
  (* A leading comment shifts every line; the [main] edit re-analyses
     exactly one function; cached summaries must be relocated so the
     merged report is byte-identical to a cold analysis. *)
  let edited =
    "// shift every line down\n"
    ^ replace
        ~sub:"func main() {\n  helper();"
        ~by:"func main() {\n  var fresh = 3;\n  helper();" base_source
  in
  let warm =
    analysis_exn "warm"
      (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
         ~file:"warm.hml" edited)
  in
  Alcotest.(check int) "one function re-analysed" 1 warm.Serve.Daemon.analysed;
  Alcotest.(check int) "three summaries reused" 3 warm.Serve.Daemon.reused;
  Alcotest.(check string)
    "warm report byte-identical to cold"
    (cold_json edited)
    (Parcoach.Json_report.to_string warm.Serve.Daemon.report);
  (* Re-sending the same source is an all-hit chunk walk and still
     produces the identical report. *)
  let again =
    analysis_exn "again"
      (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
         ~file:"warm.hml" edited)
  in
  Alcotest.(check string)
    "replayed report identical"
    (cold_json edited)
    (Parcoach.Json_report.to_string again.Serve.Daemon.report);
  (* Service-scale programs: appending a statement to [main] (which
     nothing calls) changes one summary key. *)
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let program = e.generate_large () in
      let append_to_main (f : Ast.func) =
        if String.equal f.Ast.fname "main" then
          {
            f with
            Ast.body = f.Ast.body @ [ Ast.mk (Ast.Compute (Ast.Int 9_999_999)) ];
          }
        else f
      in
      let edited =
        Pretty.program_to_string
          { Ast.funcs = List.map append_to_main program.Ast.funcs }
      in
      let daemon = Serve.Daemon.create () in
      ignore
        (analysis_exn e.name
           (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
              ~file:"warm.hml"
              (Pretty.program_to_string program)));
      let warm =
        analysis_exn e.name
          (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
             ~file:"warm.hml" edited)
      in
      Alcotest.(check int)
        (e.name ^ ": one function re-analysed")
        1 warm.Serve.Daemon.analysed;
      Alcotest.(check string)
        (e.name ^ ": warm report byte-identical to cold")
        (cold_json edited)
        (Parcoach.Json_report.to_string warm.Serve.Daemon.report))
    Benchsuite.Catalog.all

let test_daemon_invalid_source () =
  let daemon = Serve.Daemon.create () in
  (match
     Serve.Daemon.analyze_source daemon ~options:serve_options
       "func main() { no_such_function(); }"
   with
  | Ok _ -> Alcotest.fail "undefined call should not validate"
  | Error issues ->
      Alcotest.(check bool) "validation errors reported" false
        (Validate.is_valid issues));
  match Serve.Daemon.analyze_source daemon ~options:serve_options "func main( {" with
  | Ok _ -> Alcotest.fail "syntax error should not analyse"
  | Error issues ->
      Alcotest.(check int) "one parse issue" 1 (List.length issues)

(* Drive [Daemon.serve] through temp files and collect responses keyed by
   request id (responses may arrive out of order with a pool). *)
let run_serve ~pool lines =
  let in_path = Filename.temp_file "parcoachd_test" ".in" in
  let out_path = Filename.temp_file "parcoachd_test" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out in_path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let ic = open_in in_path in
      let oc = open_out out_path in
      let daemon = Serve.Daemon.create () in
      Serve.Daemon.serve ~pool daemon ic oc;
      close_in ic;
      close_out oc;
      let ic = open_in out_path in
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      close_in ic;
      List.map
        (fun line ->
          match Serve.Json.parse line with
          | Error msg -> Alcotest.failf "bad response %s: %s" line msg
          | Ok v -> (
              match
                Option.bind (Serve.Json.member "id" v) Serve.Json.to_int
              with
              | Some id -> (id, v)
              | None -> Alcotest.failf "response without id: %s" line))
        lines)

let request_line ?(options = []) ?only ~id ~file source =
  Serve.Json.to_string
    (Serve.Json.Obj
       [
         ("id", Serve.Json.Int id);
         ("method", Serve.Json.Str "analyze");
         ( "params",
           Serve.Json.Obj
             ([
                ("source", Serve.Json.Str source);
                ("file", Serve.Json.Str file);
                ("jobs", Serve.Json.Int 1);
              ]
             @ List.map (fun (k, b) -> (k, Serve.Json.Bool b)) options
             @
             match only with
             | None -> []
             | Some c -> [ ("only", Serve.Json.Str c) ]) );
       ])

let response_exn line =
  match Serve.Json.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparsable response %s: %s" line msg

let warnings_of response =
  match
    Option.bind (Serve.Json.member "warnings" response) Serve.Json.to_int
  with
  | Some n -> n
  | None -> Alcotest.failf "response without warning count"

let analyze_request id source =
  request_line ~id ~file:"pool.hml"
    ~options:
      [ ("taint_filter", true); ("interprocedural", true); ("races", true) ]
    source

(* The analysis payload of a response: everything except the cache
   counters and timings, which legitimately depend on scheduling. *)
let payload response =
  let part name =
    match Serve.Json.member name response with
    | Some v -> Serve.Json.to_string v
    | None -> "<absent>"
  in
  String.concat "|"
    [ part "ok"; part "valid"; part "report"; part "warnings"; part "issues";
      part "error" ]

let test_daemon_pool_deterministic () =
  let edit n =
    replace ~sub:"func main() {"
      ~by:(Printf.sprintf "func main() {\n  var round = %d;\n  compute(round);" n)
      base_source
  in
  let requests = List.init 6 (fun i -> analyze_request i (edit (i mod 3))) in
  let sequential = run_serve ~pool:1 requests in
  let pooled = run_serve ~pool:4 requests in
  Alcotest.(check int) "all requests answered" (List.length requests)
    (List.length pooled);
  List.iter
    (fun (id, seq_response) ->
      match List.assoc_opt id pooled with
      | None -> Alcotest.failf "pooled run lost response %d" id
      | Some pooled_response ->
          Alcotest.(check string)
            (Printf.sprintf "response %d identical under pool" id)
            (payload seq_response) (payload pooled_response))
    sequential

(* The smoke session of [parcoachd]'s CLI test at pool widths 1 and 3:
   per id, every response is identical once the cache counters and
   timings are dropped.  Those, and the [stats] totals, count the shared
   summary cache, so they depend on how concurrent requests
   interleave. *)
let test_daemon_pool_smoke_session () =
  let lines =
    In_channel.with_open_bin "serve_smoke.jsonl" In_channel.input_lines
  in
  let stats_ids =
    List.filter_map
      (fun line ->
        let v = response_exn line in
        match Option.bind (Serve.Json.member "method" v) Serve.Json.to_str with
        | Some "stats" -> Option.bind (Serve.Json.member "id" v) Serve.Json.to_int
        | _ -> None)
      lines
  in
  let comparable responses =
    List.filter_map
      (fun (id, v) ->
        if List.mem id stats_ids then None
        else
          match v with
          | Serve.Json.Obj fields ->
              Some
                ( id,
                  Serve.Json.to_string
                    (Serve.Json.Obj
                       (List.filter
                          (fun (k, _) -> k <> "cache" && k <> "timings")
                          fields)) )
          | _ -> Alcotest.failf "response %d is not an object" id)
      responses
    |> List.sort compare
  in
  let sequential = run_serve ~pool:1 lines in
  let pooled = run_serve ~pool:3 lines in
  Alcotest.(check int) "every request answered" (List.length lines)
    (List.length pooled);
  Alcotest.(check bool) "the session has a stats request" true (stats_ids <> []);
  Alcotest.(check (list (pair int string)))
    "responses per id" (comparable sequential) (comparable pooled)

let test_daemon_protocol_errors () =
  let daemon = Serve.Daemon.create () in
  let check_error label line =
    match Serve.Json.parse (Serve.Daemon.handle_line daemon line) with
    | Error msg -> Alcotest.failf "%s: unparsable response: %s" label msg
    | Ok v ->
        Alcotest.(check (option bool))
          label (Some false)
          (Option.bind (Serve.Json.member "ok" v) Serve.Json.to_bool)
  in
  check_error "bad json" "{nope";
  check_error "missing method" {|{"id":1}|};
  check_error "unknown method" {|{"id":1,"method":"frobnicate"}|};
  check_error "missing source" {|{"id":1,"method":"analyze"}|};
  check_error "bad level"
    {|{"id":1,"method":"analyze","params":{"source":"func main() { }","level":"nope"}}|};
  check_error "bad jobs"
    {|{"id":1,"method":"analyze","params":{"source":"func main() { }","jobs":0}}|};
  check_error "unknown warning class in only"
    {|{"id":1,"method":"analyze","params":{"source":"func main() { }","only":"no-such-class"}}|}

(* A syntax error is a located issue of an invalid program, built by the
   same helper as the CLIs' reports, never an internal error. *)
let test_daemon_syntax_errors () =
  let daemon = Serve.Daemon.create () in
  let check label source expected =
    let request =
      Serve.Json.to_string
        (Serve.Json.Obj
           [
             ("id", Serve.Json.Int 1);
             ("method", Serve.Json.Str "analyze");
             ( "params",
               Serve.Json.Obj
                 [
                   ("source", Serve.Json.Str source);
                   ("file", Serve.Json.Str "s.hml");
                 ] );
           ])
    in
    Alcotest.(check string)
      label
      ({|{"id":1,"ok":true,"valid":false,"issues":[{"severity":"error","loc":{"file":"s.hml",|}
      ^ expected ^ "}]}")
      (Serve.Daemon.handle_line daemon request)
  in
  check "huge integer" "func main() { var x = 99999999999999999999; }"
    {|"line":1,"col":23},"message":"lex error: integer literal out of range"|};
  check "missing semicolon" "func main() {\n  var x = 1\n}"
    {|"line":3,"col":1},"message":"parse error: expected ';' but found '}'"|}

(* The requests pass and the warning-class filter, shared with
   [parcoachc --requests] / [--only]. *)
let test_daemon_only_filter () =
  let source =
    "func main() {\n\
    \  r = MPI_Ibarrier();\n\
    \  if (rank() == 0) {\n\
    \    MPI_Wait(r);\n\
    \  }\n\
     }\n"
  in
  let request id only =
    request_line ~id ~file:"only.hml" ?only
      ~options:[ ("taint_filter", true); ("requests", true) ]
      source
  in
  let responses =
    run_serve ~pool:1
      [
        request 1 None;
        request 2 (Some "request leak");
        request 3 (Some "data race");
      ]
  in
  let get id = List.assoc id responses in
  (* Unfiltered: the leak and the completion mismatch. *)
  Alcotest.(check int) "both warnings unfiltered" 2 (warnings_of (get 1));
  Alcotest.(check int) "leak only" 1 (warnings_of (get 2));
  Alcotest.(check int) "disjoint class filters everything" 0
    (warnings_of (get 3))

(* Every analysis option is part of the summary key.  The record literal
   in [with_field] breaks the build when a field is added; the field
   count check then asks for a flip of the new field. *)
let test_options_digest_fields () =
  let base = serve_options in
  let with_field ?(initial_word = base.Parcoach.Driver.initial_word)
      ?(provided_level = base.Parcoach.Driver.provided_level)
      ?(taint_filter = base.Parcoach.Driver.taint_filter)
      ?(interprocedural = base.Parcoach.Driver.interprocedural)
      ?(races = base.Parcoach.Driver.races)
      ?(requests = base.Parcoach.Driver.requests) () =
    {
      Parcoach.Driver.initial_word;
      provided_level;
      taint_filter;
      interprocedural;
      races;
      requests;
    }
  in
  let flips =
    [
      ( "initial_word",
        with_field
          ~initial_word:
            (if base.Parcoach.Driver.initial_word = [] then
               [ Parcoach.Pword.P 0 ]
             else [])
          () );
      ( "provided_level",
        with_field
          ~provided_level:
            (if base.Parcoach.Driver.provided_level = Mpisim.Thread_level.Single
             then Mpisim.Thread_level.Multiple
             else Mpisim.Thread_level.Single)
          () );
      ("taint_filter", with_field ~taint_filter:(not base.taint_filter) ());
      ( "interprocedural",
        with_field ~interprocedural:(not base.interprocedural) () );
      ("races", with_field ~races:(not base.races) ());
      ("requests", with_field ~requests:(not base.requests) ());
    ]
  in
  Alcotest.(check int)
    "one flip per options field"
    (Obj.size (Obj.repr base))
    (List.length flips);
  let d = Serve.Hash.options_digest base in
  Alcotest.(check string) "unchanged options keep the digest" d
    (Serve.Hash.options_digest (with_field ()));
  List.iter
    (fun (field, o) ->
      Alcotest.(check bool)
        (field ^ " changes the options digest")
        false
        (String.equal d (Serve.Hash.options_digest o)))
    flips

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A summary computed without the requests pass must not answer a request
   that asks for it. *)
let test_daemon_requests_option () =
  let source = read_file "../examples/programs/leaky_request.hml" in
  let request id requests =
    request_line ~id ~file:"leaky_request.hml"
      ~options:[ ("requests", requests) ] source
  in
  let daemon = Serve.Daemon.create () in
  let without = response_exn (Serve.Daemon.handle_line daemon (request 1 false)) in
  let warm = response_exn (Serve.Daemon.handle_line daemon (request 2 true)) in
  let cold =
    response_exn
      (Serve.Daemon.handle_line (Serve.Daemon.create ()) (request 2 true))
  in
  Alcotest.(check int) "no request warnings without the pass" 0
    (warnings_of without);
  Alcotest.(check int) "the cold run finds the leak" 3 (warnings_of cold);
  Alcotest.(check string) "warm = cold after the option flips" (payload cold)
    (payload warm);
  ignore
    (Serve.Daemon.handle_line daemon {|{"id":3,"method":"clear"}|});
  Alcotest.(check int) "after clear" 3
    (warnings_of (response_exn (Serve.Daemon.handle_line daemon (request 4 true))))

(* Editing a callee's parameter count re-validates its callers although
   their text, and so their chunk memo, did not change. *)
let test_daemon_callee_arity () =
  let daemon = Serve.Daemon.create () in
  let analyze source =
    Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
      ~file:"arity.hml" source
  in
  ignore (analysis_exn "base" (analyze base_source));
  let edited = replace ~sub:"func leaf()" ~by:"func leaf(extra)" base_source in
  (match analyze edited with
  | Ok _ -> Alcotest.fail "caller of a re-declared leaf should not validate"
  | Error issues ->
      Alcotest.(check (list string))
        "the unchanged caller reports the arity error"
        [ "error: arity.hml:5:3: 'leaf' expects 1 argument(s), got 0" ]
        (List.map Validate.issue_to_string issues));
  ignore (analysis_exn "reverted" (analyze base_source));
  (* Two definitions of one name: both memos stay per chunk. *)
  let dup = base_source ^ "func loner() {\n  MPI_Barrier();\n}\n" in
  (match analyze dup with
  | Ok _ -> Alcotest.fail "duplicate function should not validate"
  | Error issues ->
      Alcotest.(check (list string))
        "duplicate reported once, on the first definition"
        [ "error: arity.hml:7:1: duplicate function 'loner'" ]
        (List.map Validate.issue_to_string issues));
  Alcotest.(check string)
    "duplicate removed: warm = cold" (cold_json base_source)
    (Parcoach.Json_report.to_string
       (analysis_exn "dedup" (analyze base_source)).Serve.Daemon.report)

(* ------------------------------------------------------------------ *)
(* Differential: warm memos = a fresh daemon, over edit sessions       *)
(* ------------------------------------------------------------------ *)

type step =
  | Body of int * int  (** Prepend [compute(marker)] to function [i]. *)
  | Arity of int  (** Toggle an extra parameter on a called function. *)
  | Dup of int  (** Toggle a trailing copy of function [i]. *)
  | Layout of int  (** Leading comment and blank lines. *)
  | Syntax of bool  (** One request with a broken function appended. *)
  | Only of string  (** One request filtered to a warning class. *)
  | Requests  (** Toggle the requests pass. *)
  | Clear

let step_to_string = function
  | Body (i, m) -> Printf.sprintf "body %d %d" i m
  | Arity i -> Printf.sprintf "arity %d" i
  | Dup i -> Printf.sprintf "dup %d" i
  | Layout n -> Printf.sprintf "layout %d" n
  | Syntax b -> Printf.sprintf "syntax %b" b
  | Only c -> Printf.sprintf "only %s" c
  | Requests -> "requests"
  | Clear -> "clear"

let session_bases =
  lazy
    (let examples =
       List.filter_map
         (fun name ->
           if Filename.check_suffix name ".hml" then
             Some
               (Parser.parse_file (Filename.concat "../examples/programs" name))
           else None)
         (List.sort String.compare
            (Array.to_list (Sys.readdir "../examples/programs")))
     in
     Array.of_list
       ((parse base_source
        :: List.map
             (fun (e : Benchsuite.Catalog.entry) ->
               e.Benchsuite.Catalog.generate ())
             Benchsuite.Catalog.all)
       @ examples))

let extra_param = "zz_extra"

(* Runs [steps] against one long-lived daemon, comparing each response
   with a fresh daemon's answer to the same request line. *)
let run_session base steps =
  let funcs = ref (Lazy.force session_bases).(base).Ast.funcs in
  let dup = ref None and lead = ref 0 and requests = ref false in
  let daemon = Serve.Daemon.create () in
  let render () =
    String.concat "\n"
      ((if !lead = 0 then []
        else [ "// layout" ^ String.make !lead '\n' ])
      @ List.map
          (fun f -> Pretty.program_to_string { Ast.funcs = [ f ] })
          (!funcs @ Option.to_list !dup))
  in
  let nth i = List.nth !funcs (i mod List.length !funcs) in
  let update (g : Ast.func) =
    funcs :=
      List.map
        (fun (f : Ast.func) ->
          if String.equal f.Ast.fname g.Ast.fname then g else f)
        !funcs
  in
  let called () =
    let names = List.concat_map Parcoach.Callgraph.callees !funcs in
    List.filter (fun (f : Ast.func) -> List.mem f.Ast.fname names) !funcs
  in
  List.for_all
    (fun step ->
      let only = ref None and extra = ref "" in
      (match step with
      | Body (i, m) ->
          let f = nth i in
          update
            { f with Ast.body = Ast.mk (Ast.Compute (Ast.Int m)) :: f.Ast.body }
      | Arity i -> (
          match called () with
          | [] -> ()
          | fs ->
              let f = List.nth fs (i mod List.length fs) in
              update
                {
                  f with
                  Ast.params =
                    (if List.mem extra_param f.Ast.params then
                       List.filter (( <> ) extra_param) f.Ast.params
                     else f.Ast.params @ [ extra_param ]);
                })
      | Dup i -> dup := (match !dup with Some _ -> None | None -> Some (nth i))
      | Layout n -> lead := n
      | Syntax unbalanced ->
          extra :=
            if unbalanced then "\nfunc broken( {\n"
            else "\nfunc broken() { var = ; }\n"
      | Only c -> only := Some c
      | Requests -> requests := not !requests
      | Clear -> ());
      match step with
      | Clear ->
          Serve.Daemon.handle_line daemon {|{"id":0,"method":"clear"}|}
          = {|{"id":0,"ok":true,"cleared":true}|}
      | _ ->
          let line =
            request_line ~id:1 ~file:"session.hml" ?only:!only
              ~options:
                [
                  ("taint_filter", true);
                  ("interprocedural", true);
                  ("races", true);
                  ("requests", !requests);
                ]
              (render () ^ !extra)
          in
          let warm = response_exn (Serve.Daemon.handle_line daemon line) in
          let cold =
            response_exn
              (Serve.Daemon.handle_line (Serve.Daemon.create ()) line)
          in
          String.equal (payload warm) (payload cold)
          || QCheck.Test.fail_reportf "step %s: warm %s@.cold %s"
               (step_to_string step) (payload warm) (payload cold))
    steps

(* Every step kind, on every base: a callee's arity edited and restored,
   a duplicate added and removed, layout shifts around a filtered
   request, both kinds of syntax error, the requests pass switched on,
   and a clear. *)
let scripted_steps =
  [
    Body (3, 1);
    Arity 0;
    Body (0, 2);
    Arity 0;
    Dup 1;
    Layout 3;
    Dup 1;
    Only "collective mismatch";
    Syntax true;
    Layout 0;
    Syntax false;
    Requests;
    Body (2, 3);
    Clear;
    Body (2, 4);
  ]

let test_daemon_session () =
  Array.iteri
    (fun base _ ->
      Alcotest.(check bool)
        (Printf.sprintf "scripted session on base %d: warm = cold" base)
        true
        (run_session base scripted_steps))
    (Lazy.force session_bases)

let gen_step =
  let open Gen in
  frequency
    [
      (4, map2 (fun i m -> Body (i, m)) nat (int_bound 1000));
      (2, map (fun i -> Arity i) nat);
      (1, map (fun i -> Dup i) nat);
      (2, map (fun n -> Layout n) (int_bound 3));
      (1, map (fun b -> Syntax b) bool);
      (1, map (fun c -> Only c) (oneofl Parcoach.Warning.all_classes));
      (1, return Requests);
      (1, return Clear);
    ]

let prop_daemon_sessions =
  QCheck.Test.make ~name:"warm memos = fresh daemon over edit sessions"
    ~count:25
    (QCheck.make
       ~print:(fun (base, steps) ->
         Printf.sprintf "base %d: %s" base
           (String.concat "; " (List.map step_to_string steps)))
       Gen.(
         pair
           (int_bound (Array.length (Lazy.force session_bases) - 1))
           (list_size (int_range 4 12) gen_step)))
    (fun (base, steps) -> run_session base steps)

(* The stats response reports the memo hits of warm requests. *)
let test_daemon_memo_stats () =
  let daemon = Serve.Daemon.create () in
  let line = request_line ~id:1 ~file:"stats.hml" base_source in
  ignore (Serve.Daemon.handle_line daemon line);
  ignore (Serve.Daemon.handle_line daemon line);
  let stats =
    response_exn (Serve.Daemon.handle_line daemon {|{"id":2,"method":"stats"}|})
  in
  let get path =
    List.fold_left
      (fun v k -> Option.bind v (Serve.Json.member k))
      (Some stats) path
    |> Fun.flip Option.bind Serve.Json.to_int
  in
  Alcotest.(check (option int)) "chunks" (Some 4) (get [ "chunks" ]);
  Alcotest.(check (option int))
    "validation memo hits" (Some 4)
    (get [ "memo_hits"; "validation" ]);
  Alcotest.(check (option int))
    "fragment memo hits" (Some 4)
    (get [ "memo_hits"; "fragments" ])

(* ------------------------------------------------------------------ *)
(* Driver.analyze ?reuse                                               *)
(* ------------------------------------------------------------------ *)

let test_driver_reuse_identity () =
  let program = parse base_source in
  let cold = Parcoach.Driver.analyze ~options:serve_options ~jobs:1 program in
  let by_name =
    List.map (fun (fr : Parcoach.Driver.func_report) -> (fr.Parcoach.Driver.fname, fr)) cold.Parcoach.Driver.funcs
  in
  let full_reuse (f : Ast.func) = List.assoc_opt f.Ast.fname by_name in
  let partial_reuse (f : Ast.func) =
    if String.equal f.Ast.fname "main" then None
    else List.assoc_opt f.Ast.fname by_name
  in
  List.iter
    (fun (label, reuse) ->
      let merged =
        Parcoach.Driver.analyze ~options:serve_options ~jobs:1 ~reuse program
      in
      Alcotest.(check string)
        (label ^ " merge is byte-identical")
        (Parcoach.Json_report.to_string cold)
        (Parcoach.Json_report.to_string merged))
    [ ("full reuse", full_reuse); ("partial reuse", partial_reuse) ]

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_everything () =
  let pool = Serve.Pool.create ~jobs:4 () in
  let counter = Atomic.make 0 in
  for i = 1 to 32 do
    Serve.Pool.submit pool (fun () ->
        Atomic.incr counter;
        (* A failing job must not take its worker down. *)
        if i mod 8 = 0 then failwith "job failed")
  done;
  Serve.Pool.shutdown pool;
  Alcotest.(check int) "shutdown ran every accepted job" 32
    (Atomic.get counter);
  Serve.Pool.shutdown pool;
  match Serve.Pool.submit pool ignore with
  | () -> Alcotest.fail "submit after shutdown should fail"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_chunker_roundtrip;
      prop_keys_location_insensitive;
      prop_daemon_sessions;
    ]

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json unicode escapes" `Quick test_json_unicode;
        Alcotest.test_case "json parse errors" `Quick test_json_errors;
        Alcotest.test_case "json raw splice" `Quick test_json_raw_splice;
        Alcotest.test_case "chunker = direct parse" `Quick
          test_chunker_equals_direct;
        Alcotest.test_case "chunker falls back on unclean input" `Quick
          test_chunker_fallback;
        Alcotest.test_case "chunker edge cases are pinned" `Quick
          test_chunker_edge_cases;
        Alcotest.test_case "keys ignore comments and blank lines" `Quick
          test_keys_ignore_layout;
        Alcotest.test_case "keys ignore unrelated functions" `Quick
          test_keys_ignore_unrelated;
        Alcotest.test_case "keys track body and callee edits" `Quick
          test_keys_track_bodies;
        Alcotest.test_case "daemon warm report = cold report" `Quick
          test_daemon_warm_identity;
        Alcotest.test_case "daemon rejects invalid sources" `Quick
          test_daemon_invalid_source;
        Alcotest.test_case "daemon pool = sequential responses" `Quick
          test_daemon_pool_deterministic;
        Alcotest.test_case "daemon pool smoke session = sequential" `Quick
          test_daemon_pool_smoke_session;
        Alcotest.test_case "daemon warning-class filter" `Quick
          test_daemon_only_filter;
        Alcotest.test_case "daemon protocol errors" `Quick
          test_daemon_protocol_errors;
        Alcotest.test_case "daemon syntax errors are located issues" `Quick
          test_daemon_syntax_errors;
        Alcotest.test_case "options digest covers every field" `Quick
          test_options_digest_fields;
        Alcotest.test_case "daemon keys summaries by the requests option"
          `Quick test_daemon_requests_option;
        Alcotest.test_case "daemon re-validates callers of a re-declared callee"
          `Quick test_daemon_callee_arity;
        Alcotest.test_case "daemon scripted session warm = cold" `Quick
          test_daemon_session;
        Alcotest.test_case "daemon stats count memo hits" `Quick
          test_daemon_memo_stats;
        Alcotest.test_case "Driver.analyze reuse identity" `Quick
          test_driver_reuse_identity;
        Alcotest.test_case "pool runs every job" `Quick
          test_pool_runs_everything;
      ]
      @ qcheck_tests );
  ]

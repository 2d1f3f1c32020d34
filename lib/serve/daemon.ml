(** Daemon state and protocol handling (see the interface). *)

open Minilang

(* One cached function chunk: the chunk-relative parse, its structural
   digest and call-graph summary (memos for the summary keys, the
   interprocedural closure and the validation memo's key), the memo of
   its chunk-relative validation issues and the last absolute form, so a
   chunk that keeps its file position across requests is reused
   physically, with no location shifting at all.  The issues depend only
   on [rel] and on the arity of each of its direct callees, so they are
   memoized under those arities ([-1]: undefined), in the order of the
   summary's [calls]; placing them shifts their locations like the
   function's. *)
type chunk_entry = {
  rel : Ast.func;
  fdigest : string;
  summary : Parcoach.Callgraph.summary;
  mutable issue_memo : (int list * Validate.issue list) option;
  mutable placed : placed option;
}

(* A chunk's function placed at one file position. *)
and placed = {
  entry : chunk_entry;
  file : string;
  line : int;
  col : int;
  func : Ast.func;
}

module Strtbl = Hashtbl.Make (String)

(* What validating one layout derived, by position: each function's
   validation memo as it was read ([None]: none yet) and its placed
   issues, then the arity table and the duplicate-name issues (both
   depend only on each position's name and parameter count). *)
type checked = {
  spans : placed Chunker.span array;
  arity : string -> int option;
  memos : (int list * Validate.issue list) option array;
  placed_issues : Validate.issue list array;
  duplicates : Validate.issue list;
}

(* Per file name: the last source whose split was clean and its placed
   chunks, and what the last request on it derived. *)
type file = {
  mutable layout : placed Chunker.layout;
  mutable checked : checked option;
  carry : Cache.carry;
}

type t = {
  cache : Cache.t;
  chunks : chunk_entry Strtbl.t;
      (** Per-function parse cache, keyed by the exact chunk text.  An
          edited source re-parses only its changed chunks. *)
  files : file Strtbl.t;
      (** Per file name: the next request for that file scans and looks
          up only the bytes it changed, and reuses what the last one
          derived from its unchanged functions. *)
  mutable validation_hits : int;
  mutable fragment_hits : int;
  default_jobs : int option;
}

let chunk_cache_capacity = 2048
let file_capacity = 64

let create ?capacity ?jobs () =
  {
    cache = Cache.create ?capacity ();
    chunks = Strtbl.create 256;
    files = Strtbl.create 16;
    validation_hits = 0;
    fragment_hits = 0;
    default_jobs = jobs;
  }

let cache t = t.cache

type analysis = {
  report : Parcoach.Driver.report;
  issues : Validate.issue list;
  entries : Cache.entry list;
  reused : int;
  analysed : int;
  timings : Parcoach.Timings.t;
}

(* ------------------------------------------------------------------ *)
(* Analysis with summary reuse                                         *)
(* ------------------------------------------------------------------ *)

exception Chunk_fallback

let reset_chunks t =
  Strtbl.reset t.chunks;
  Strtbl.reset t.files

module Entries = Hashtbl.Make (struct
  type t = chunk_entry

  let equal = ( == )
  let hash e = Hashtbl.hash e.fdigest
end)

(* Both tables are bounded.  A full chunk table drops the texts that no
   file's layout holds (an edited function's old versions); only when
   the layouts' chunks alone fill it is it reset with the per-file
   table. *)
let evict_chunks t =
  let live = Entries.create 256 in
  Strtbl.iter
    (fun _ file ->
      Array.iter
        (fun (sp : placed Chunker.span) -> Entries.replace live sp.data.entry ())
        file.layout.spans)
    t.files;
  Strtbl.filter_map_inplace
    (fun _ e -> if Entries.mem live e then Some e else None)
    t.chunks;
  if Strtbl.length t.chunks >= chunk_cache_capacity then reset_chunks t

let chunk_entry t text =
  match Strtbl.find_opt t.chunks text with
  | Some e -> e
  | None -> (
      let p =
        match
          Validate.catch_syntax_error (fun () ->
              Parser.parse_string ~file:"" text)
        with
        | Ok p -> p
        | Error _ -> raise Chunk_fallback
      in
      match p.Ast.funcs with
      | [ f ] ->
          let e =
            {
              rel = f;
              fdigest = Hash.func_digest f;
              summary = Parcoach.Callgraph.summary f;
              issue_memo = None;
              placed = None;
            }
          in
          if Strtbl.length t.chunks >= chunk_cache_capacity then evict_chunks t;
          Strtbl.replace t.chunks text e;
          e
      | _ -> raise Chunk_fallback)

let place ~file ~line ~col e =
  match e.placed with
  | Some p when p.line = line && p.col = col && String.equal p.file file -> p
  | _ ->
      let func = Chunker.shift_func ~file ~line ~col e.rel in
      let p = { entry = e; file; line; col; func } in
      e.placed <- Some p;
      p

(* Parse via the per-function chunk cache: re-split the source against
   the file's last clean split, re-parse only chunks whose text is new,
   place each chunk at its current file position.  Returns the file's
   state and its program's chunks in source order.  Raises
   [Chunk_fallback] whenever the chunked result could differ from a
   whole-file parse (unclean split, a chunk that does not parse to
   exactly one function) — the caller then runs the one-shot parser so
   results and errors are exactly its own.  The file's layout is then
   left as it was: the next request compares with the last clean one. *)
let parse_chunked t ~file source =
  let known = Strtbl.find_opt t.files file in
  match
    Chunker.resplit
      ?prev:(Option.map (fun f -> f.layout) known)
      source
      ~fresh:(fun (c : Chunker.chunk) ->
        place ~file ~line:c.line ~col:c.col (chunk_entry t c.text))
      ~moved:(fun (sp : placed Chunker.span) ->
        place ~file ~line:sp.line ~col:sp.col sp.data.entry)
  with
  | None -> raise Chunk_fallback
  | Some layout -> (
      match known with
      | Some f when Strtbl.mem t.files file ->
          f.layout <- layout;
          f
      | _ ->
          if Strtbl.length t.files >= file_capacity then Strtbl.reset t.files;
          let f = { layout; checked = None; carry = Cache.carry () } in
          Strtbl.replace t.files file f;
          f)

(* Chunk-relative issues placed where [p] is. *)
let shift_issues p issues =
  List.map
    (fun (i : Validate.issue) ->
      {
        i with
        loc = Chunker.shift_loc ~file:p.file ~line:p.line ~col:p.col i.loc;
      })
    issues

(* A placed function's issues: the entry's chunk-relative memo, shifted
   to the placement. *)
let func_issues t ~arity p =
  let e = p.entry in
  let key =
    List.map
      (fun g -> Option.value ~default:(-1) (arity g))
      e.summary.Parcoach.Callgraph.calls
  in
  let issues =
    match e.issue_memo with
    | Some (k, issues) when k = key ->
        t.validation_hits <- t.validation_hits + 1;
        issues
    | _ ->
        let issues = Validate.check_func ~arity e.rel in
        e.issue_memo <- Some (key, issues);
        issues
  in
  shift_issues p issues

(* Whether two layouts hold, position by position, functions of the same
   name and parameter count: then they have the same arity table and
   duplicate names. *)
let same_signature (a : placed Chunker.span array) b =
  a == b
  || Array.length a = Array.length b
     && Array.for_all2
          (fun (x : placed Chunker.span) (y : placed Chunker.span) ->
            let x = x.data.entry.rel and y = y.data.entry.rel in
            x == y
            || String.equal x.Ast.fname y.Ast.fname
               && List.compare_lengths x.Ast.params y.Ast.params = 0)
          a b

(* [Validate.check_program] of a file's chunked program, each chunk's
   issues served from its memo.  Against the file's last validation,
   while names and parameter counts are unchanged, a position whose
   entry still holds the memo read then keeps its issues (shifted again
   if it moved) without computing the memo's key; every other position
   asks its memo, which re-checks the function when its text or a
   callee's arity changed. *)
let validate t file spans =
  let prev =
    match file.checked with
    | Some c when same_signature c.spans spans -> Some c
    | _ -> None
  in
  let program =
    {
      Ast.funcs =
        Array.fold_right
          (fun (sp : placed Chunker.span) fs -> sp.data.func :: fs)
          spans [];
    }
  in
  let arity =
    match prev with Some c -> c.arity | None -> Validate.arity_of program
  in
  let n = Array.length spans in
  let memos = Array.make n None and placed_issues = Array.make n [] in
  Array.iteri
    (fun i (sp : placed Chunker.span) ->
      let p = sp.data in
      match (prev, p.entry.issue_memo) with
      | Some c, (Some (_, issues) as memo) when memo == c.memos.(i) ->
          t.validation_hits <- t.validation_hits + 1;
          memos.(i) <- memo;
          placed_issues.(i) <-
            (if p == c.spans.(i).data then c.placed_issues.(i)
             else shift_issues p issues)
      | _ ->
          placed_issues.(i) <- func_issues t ~arity p;
          memos.(i) <- p.entry.issue_memo)
    spans;
  (* Duplicate-name issues are located, but none stay none while the
     names are the same. *)
  let duplicates =
    match prev with
    | Some { duplicates = []; _ } -> []
    | _ -> Validate.duplicate_functions program
  in
  file.checked <- Some { spans; arity; memos; placed_issues; duplicates };
  (program, Array.fold_right ( @ ) placed_issues duplicates)

(* Analysis against the warm state, its phases recorded in [tm]. *)
let analyze t tm ?(options = Parcoach.Driver.default_options) ?jobs
    ?(file = "<request>") source =
  let record phase f = Parcoach.Timings.record tm phase f in
  match
    Validate.catch_syntax_error (fun () ->
        record "parse" (fun () ->
            match parse_chunked t ~file source with
            | f -> `Chunked f
            | exception Chunk_fallback ->
                `Whole (Parser.parse_string ~file source)))
  with
  | Error issue -> Error [ issue ]
  | Ok parsed -> (
      let file, program, issues =
        record "validate" (fun () ->
            match parsed with
            | `Chunked f ->
                let program, issues = validate t f f.layout.spans in
                (Some f, program, issues)
            | `Whole program -> (None, program, Validate.check_program program))
      in
      match Validate.is_valid issues with
      | false -> Error issues
      | true ->
          (* The entry [f] was placed from, found by a physical scan of
             the layout that starts where the last one ended: the cache
             asks in source order. *)
          let memo field =
            Option.map
              (fun file ->
                let spans = file.layout.spans in
                let n = Array.length spans and at = ref 0 in
                fun (f : Ast.func) ->
                  let rec scan k =
                    if k = n then None
                    else
                      let i = (!at + k) mod n in
                      let p = spans.(i).Chunker.data in
                      if p.func == f then begin
                        at := i;
                        Some (field p.entry)
                      end
                      else scan (k + 1)
                  in
                  scan 0)
              file
          in
          let jobs =
            match jobs with Some _ as j -> j | None -> t.default_jobs
          in
          let report, entries, reused =
            Cache.analyze t.cache ~options ?jobs
              ?digest:(memo (fun e -> e.fdigest))
              ?summary:(memo (fun e -> e.summary))
              ?carry:(Option.map (fun f -> f.carry) file)
              ~timings:tm program
          in
          Ok
            {
              report;
              issues;
              entries;
              reused;
              analysed = List.length entries - reused;
              timings = tm;
            })

let analyze_source t ?options ?jobs ?file source =
  analyze t (Parcoach.Timings.create ()) ?options ?jobs ?file source

(* The report's JSON and warning count.  An unfiltered report renders
   each function from its entry's fragment memo (entries and report
   functions are in the same order).  A report filtered with [only]
   holds new function reports and is rendered afresh. *)
let render t (a : analysis) ~only =
  match only with
  | Some _ ->
      let report = Parcoach.Driver.filter_classes a.report ~only in
      ( Parcoach.Json_report.to_string ~issues:a.issues report,
        Parcoach.Driver.warning_count report )
  | None ->
      let fragments =
        List.map
          (fun (e : Cache.entry) ->
            match e.json with
            | Some j ->
                t.fragment_hits <- t.fragment_hits + 1;
                j
            | None ->
                let j = Parcoach.Json_report.func_json e.report in
                e.json <- Some j;
                j)
          a.entries
      in
      ( Parcoach.Json_report.to_string ~issues:a.issues ~fragments a.report,
        Parcoach.Driver.warning_count a.report )

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* A typed parameter: [Ok None] when absent, an error naming the
   expected JSON type when present with another. *)
let param params name conv what =
  match Json.member name params with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "analyze: '%s' must be %s" name what))

let options_of_params params =
  let flag name =
    Result.map (Option.value ~default:false)
      (param params name Json.to_bool "a boolean")
  in
  let* level = param params "level" Json.to_str "a string" in
  let* provided_level =
    match level with
    | None -> Ok Mpisim.Thread_level.Multiple
    | Some s -> (
        match Mpisim.Thread_level.of_string s with
        | Some l -> Ok l
        | None -> Error (Printf.sprintf "unknown thread level '%s'" s))
  in
  let* initial_multithreaded = flag "initial_multithreaded" in
  let* taint_filter = flag "taint_filter" in
  let* interprocedural = flag "interprocedural" in
  let* races = flag "races" in
  let* requests = flag "requests" in
  Ok
    {
      Parcoach.Driver.initial_word =
        (if initial_multithreaded then [ Parcoach.Pword.P 0 ] else []);
      provided_level;
      taint_filter;
      interprocedural;
      races;
      requests;
    }

let error_response id msg =
  Json.Obj [ ("id", id); ("ok", Json.Bool false); ("error", Json.Str msg) ]

(* The warning-class filter shared with [parcoachc --only]: a
   comma-separated string or a list of strings; unknown class names are
   protocol errors (the CLI rejects them at option-parse time). *)
let only_of_params params =
  let check names =
    match
      List.find_opt
        (fun c -> not (List.mem c Parcoach.Warning.all_classes))
        names
    with
    | Some c ->
        Error (Printf.sprintf "analyze: unknown warning class '%s'" c)
    | None -> Ok (Some names)
  in
  match Json.member "only" params with
  | None -> Ok None
  | Some (Json.Str s) -> check (String.split_on_char ',' s)
  | Some (Json.List items) -> (
      let strs = List.filter_map Json.to_str items in
      if List.length strs <> List.length items then
        Error "analyze: 'only' list must contain only strings"
      else check strs)
  | Some _ -> Error "analyze: 'only' must be a string or a list of strings"

let analyze_response t id params =
  let tm = Parcoach.Timings.create () in
  let respond f = Parcoach.Timings.record tm "respond" f in
  match
    respond (fun () ->
        let* source =
          Result.bind
            (param params "source" Json.to_str "a string")
            (Option.to_result ~none:"analyze: missing string parameter 'source'")
        in
        let* options = options_of_params params in
        let* only = only_of_params params in
        let* jobs = param params "jobs" Json.to_int "an integer" in
        let* () =
          match jobs with
          | Some j when j < 1 -> Error "analyze: jobs must be >= 1"
          | _ -> Ok ()
        in
        let* file = param params "file" Json.to_str "a string" in
        Ok (source, options, only, jobs, file))
  with
  | Error msg -> error_response id msg
  | Ok (source, options, only, jobs, file) -> (
      match analyze t tm ~options ?jobs ?file source with
      | Error issues ->
          Json.Obj
            [
              ("id", id);
              ("ok", Json.Bool true);
              ("valid", Json.Bool false);
              ("issues", Json.Raw (Parcoach.Json_report.issues_json issues));
            ]
      | Ok a ->
          let report_json, warnings =
            Parcoach.Timings.record tm "render" (fun () -> render t a ~only)
          in
          let fields =
            respond (fun () ->
                let stats = Cache.stats t.cache in
                [
                  ("id", id);
                  ("ok", Json.Bool true);
                  ("valid", Json.Bool true);
                  ("report", Json.Raw report_json);
                  ("warnings", Json.Int warnings);
                  ( "cache",
                    Json.Obj
                      [
                        ("hits", Json.Int a.reused);
                        ("misses", Json.Int a.analysed);
                        ("entries", Json.Int stats.Cache.entries);
                      ] );
                ])
          in
          Json.Obj
            (fields
            @ [
                ( "timings",
                  Json.Raw (Parcoach.Json_report.timings_json a.timings) );
              ]))

let stats_response t id =
  let s = Cache.stats t.cache in
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool true);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int s.Cache.hits);
            ("misses", Json.Int s.Cache.misses);
            ("entries", Json.Int s.Cache.entries);
            ("evictions", Json.Int s.Cache.evictions);
          ] );
      ("chunks", Json.Int (Strtbl.length t.chunks));
      ( "memo_hits",
        Json.Obj
          [
            ("validation", Json.Int t.validation_hits);
            ("fragments", Json.Int t.fragment_hits);
          ] );
    ]

let method_of request = Option.bind (Json.member "method" request) Json.to_str

let handle_request t request =
  let id = Option.value ~default:Json.Null (Json.member "id" request) in
  let params =
    Option.value ~default:request (Json.member "params" request)
  in
  match method_of request with
  | Some "analyze" -> analyze_response t id params
  | Some "ping" -> Json.Obj [ ("id", id); ("ok", Json.Bool true) ]
  | Some "stats" -> stats_response t id
  | Some "clear" ->
      Cache.clear t.cache;
      reset_chunks t;
      t.validation_hits <- 0;
      t.fragment_hits <- 0;
      Json.Obj [ ("id", id); ("ok", Json.Bool true); ("cleared", Json.Bool true) ]
  | Some "shutdown" ->
      Json.Obj
        [ ("id", id); ("ok", Json.Bool true); ("shutdown", Json.Bool true) ]
  | Some m -> error_response id (Printf.sprintf "unknown method '%s'" m)
  | None -> error_response id "missing string field 'method'"

(* The response to one decoded protocol line. *)
let respond t = function
  | Error msg -> Json.to_string (error_response Json.Null ("bad request: " ^ msg))
  | Ok request -> (
      match handle_request t request with
      | response -> Json.to_string response
      | exception exn ->
          let id = Option.value ~default:Json.Null (Json.member "id" request) in
          Json.to_string
            (error_response id ("internal error: " ^ Printexc.to_string exn)))

let handle_line t line = respond t (Json.parse line)

(* Each line is decoded once, answered from its decoded value, and the
   loop stops after answering a shutdown request. *)
let serve t ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | line when String.length (String.trim line) = 0 -> loop ()
    | line -> (
        let request = Json.parse line in
        output_string oc (respond t request);
        output_char oc '\n';
        flush oc;
        match request with
        | Ok r when method_of r = Some "shutdown" -> `Shutdown
        | _ -> loop ())
  in
  loop ()

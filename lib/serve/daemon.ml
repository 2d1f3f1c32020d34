(** Daemon state and protocol handling (see the interface). *)

open Minilang

(* A chunk's function placed at one file position, with the memo of its
   validation issues.  The issues depend only on [func] and on the arity
   of each of its direct callees, so they are memoized under those
   arities ([-1]: undefined), in the order of the entry's summary [calls]. *)
type placed = {
  file : string;
  line : int;
  col : int;
  func : Ast.func;
  mutable issue_memo : (int list * Validate.issue list) option;
}

(* One cached function chunk: the chunk-relative parse, its structural
   digest and call-graph summary (memos for the summary keys, the
   interprocedural closure and the validation memo's key), and the
   last absolute form, so a chunk that keeps its file position across
   requests is reused physically, with no location shifting at all.
   Memo fields are only ever overwritten with complete immutable values,
   so pool workers racing on one entry each see a consistent memo. *)
type chunk_entry = {
  rel : Ast.func;
  fdigest : string;
  summary : Parcoach.Callgraph.summary;
  mutable placed : placed option;
}

module Strtbl = Hashtbl.Make (String)

type t = {
  cache : Cache.t;
  chunks : chunk_entry Strtbl.t;
      (** Per-function parse cache, keyed by the exact chunk text.  An
          edited source re-parses only its changed chunks. *)
  chunk_lock : Mutex.t;
  validation_hits : int Atomic.t;
  fragment_hits : int Atomic.t;
  default_jobs : int option;
}

let chunk_cache_capacity = 2048

let create ?capacity ?jobs () =
  {
    cache = Cache.create ?capacity ();
    chunks = Strtbl.create 256;
    chunk_lock = Mutex.create ();
    validation_hits = Atomic.make 0;
    fragment_hits = Atomic.make 0;
    default_jobs = jobs;
  }

let cache t = t.cache

type analysis = {
  report : Parcoach.Driver.report;
  issues : Validate.issue list;
  reused : int;
  analysed : int;
  timings : Parcoach.Timings.t;
}

(* ------------------------------------------------------------------ *)
(* Analysis with summary reuse                                         *)
(* ------------------------------------------------------------------ *)

exception Chunk_fallback

let chunk_entry t text =
  Mutex.lock t.chunk_lock;
  let hit = Strtbl.find_opt t.chunks text in
  Mutex.unlock t.chunk_lock;
  match hit with
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
              placed = None;
            }
          in
          Mutex.lock t.chunk_lock;
          if Strtbl.length t.chunks >= chunk_cache_capacity then
            Strtbl.reset t.chunks;
          Strtbl.replace t.chunks text e;
          Mutex.unlock t.chunk_lock;
          e
      | _ -> raise Chunk_fallback)

let place ~file (c : Chunker.chunk) e =
  let line = c.Chunker.line and col = c.Chunker.col in
  match e.placed with
  | Some p when p.line = line && p.col = col && String.equal p.file file -> p
  | _ ->
      let func = Chunker.shift_func ~file ~line ~col e.rel in
      let p = { file; line; col; func; issue_memo = None } in
      e.placed <- Some p;
      p

(* Parse via the per-function chunk cache: split the source, re-parse
   only chunks whose text is new, place each chunk at its current file
   position.  Returns the program's chunks in source order.  Raises
   [Chunk_fallback] whenever the chunked result could differ from a
   whole-file parse (unclean split, a chunk that does not parse to
   exactly one function) — the caller then runs the one-shot parser so
   results and errors are exactly its own. *)
let parse_chunked t ~file source =
  match Chunker.split source with
  | { Chunker.clean = false; _ } -> raise Chunk_fallback
  | { Chunker.chunks; _ } ->
      List.map
        (fun (c : Chunker.chunk) ->
          let e = chunk_entry t c.Chunker.text in
          (e, place ~file c e))
        chunks

let func_issues t ~arity e p =
  let key =
    List.map
      (fun g -> Option.value ~default:(-1) (arity g))
      e.summary.Parcoach.Callgraph.calls
  in
  match p.issue_memo with
  | Some (k, issues) when k = key ->
      Atomic.incr t.validation_hits;
      issues
  | _ ->
      let issues = Validate.check_func ~arity p.func in
      p.issue_memo <- Some (key, issues);
      issues

(* [Validate.check_program], with each chunk's issues served from its
   memo. *)
let validate t program parts =
  match parts with
  | None -> Validate.check_program program
  | Some parts ->
      let arity = Validate.arity_of program in
      List.concat_map (fun (e, p) -> func_issues t ~arity e p) parts
      @ Validate.duplicate_functions program

(* [analyze_source], also returning the report's fragment renderer:
   [Json_report.func_json] served from the summary cache's fragment
   memos. *)
let analyze_source' t ?(options = Parcoach.Driver.default_options) ?jobs
    ?(file = "<request>") source =
  let tm = Parcoach.Timings.create () in
  match
    Validate.catch_syntax_error (fun () ->
        Parcoach.Timings.record tm "parse" (fun () ->
            match parse_chunked t ~file source with
            | parts ->
                ( { Ast.funcs = List.map (fun (_, p) -> p.func) parts },
                  Some parts )
            | exception Chunk_fallback ->
                (Parser.parse_string ~file source, None)))
  with
  | Error issue -> Error [ issue ]
  | Ok (program, parts) -> (
      let issues =
        Parcoach.Timings.record tm "validate" (fun () ->
            validate t program parts)
      in
      match Validate.is_valid issues with
      | false -> Error issues
      | true ->
          (* Names are unique in a valid program; the physical check ties
             each memo to the very function it was built for. *)
          let chunk_of =
            Option.map
              (fun parts ->
                let tbl = Strtbl.create (List.length parts) in
                List.iter
                  (fun (e, p) -> Strtbl.replace tbl p.func.Ast.fname (p.func, e))
                  parts;
                tbl)
              parts
          in
          let memo field =
            Option.map
              (fun tbl (f : Ast.func) ->
                match Strtbl.find_opt tbl f.Ast.fname with
                | Some (g, e) when g == f -> Some (field e)
                | _ -> None)
              chunk_of
          in
          let summary = memo (fun e -> e.summary) in
          let keys =
            Parcoach.Timings.record tm "hash" (fun () ->
                Hash.keys
                  ?digest:(memo (fun e -> e.fdigest))
                  ?summary ~options program)
          in
          (* Summary-cache lookups.  The common hit is the very AST the
             entry was stored with (the chunk cache hands back the same
             value at a stable position): it needs neither the
             structural-equality guard against digest collisions nor
             relocation.  Any other hit must be structurally equal and is
             relocated onto the fresh function's source layout, so the
             merged report is byte-identical to a cold run, then written
             back so repeated requests at this layout hit physically.  The
             fragment memo stays with an unchanged report and is dropped
             with a relocated one. *)
          let cached = Strtbl.create (List.length keys) in
          List.iter
            (fun (f, key) ->
              match Cache.find t.cache key with
              | Some e when e.Cache.func == f ->
                  Strtbl.replace cached f.Ast.fname e
              | Some e -> (
                  match
                    Relocate.func_report ~cached:e.Cache.func ~fresh:f
                      e.Cache.report
                  with
                  | None -> ()
                  | Some fr ->
                      let e =
                        if fr == e.Cache.report then { e with Cache.func = f }
                        else Cache.entry f fr
                      in
                      Cache.replace t.cache key e;
                      Strtbl.replace cached f.Ast.fname e)
              | None -> ())
            keys;
          let reuse f =
            Option.map
              (fun e -> e.Cache.report)
              (Strtbl.find_opt cached f.Ast.fname)
          in
          let jobs =
            match jobs with Some _ as j -> j | None -> t.default_jobs
          in
          let report =
            Parcoach.Driver.analyze ~options ?jobs ~reuse ?summary
              ~timings:tm program
          in
          let reused = Strtbl.length cached in
          (* Populate the cache with this request's fresh results; from
             here on [cached] holds every function's entry, whose
             fragment memo serves the rendering. *)
          List.iter2
            (fun (f, key) (fr : Parcoach.Driver.func_report) ->
              if not (Strtbl.mem cached f.Ast.fname) then begin
                let e = Cache.entry f fr in
                Cache.add t.cache key e;
                Strtbl.replace cached f.Ast.fname e
              end)
            keys report.Parcoach.Driver.funcs;
          (* A report filtered with [only] holds new function reports,
             which the physical check sends to a fresh rendering. *)
          let func_json (fr : Parcoach.Driver.func_report) =
            match Strtbl.find_opt cached fr.Parcoach.Driver.fname with
            | Some e when e.Cache.report == fr -> (
                match e.Cache.json with
                | Some j ->
                    Atomic.incr t.fragment_hits;
                    j
                | None ->
                    let j = Parcoach.Json_report.func_json fr in
                    e.Cache.json <- Some j;
                    j)
            | _ -> Parcoach.Json_report.func_json fr
          in
          Ok
            ( {
                report;
                issues;
                reused;
                analysed = List.length keys - reused;
                timings = tm;
              },
              func_json ))

let analyze_source t ?options ?jobs ?file source =
  Result.map fst (analyze_source' t ?options ?jobs ?file source)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let options_of_params params =
  let flag name =
    Option.value ~default:false (Option.bind (Json.member name params) Json.to_bool)
  in
  match Option.bind (Json.member "level" params) Json.to_str with
  | Some s when Mpisim.Thread_level.of_string s = None ->
      Error (Printf.sprintf "unknown thread level '%s'" s)
  | level ->
      Ok
        {
          Parcoach.Driver.initial_word =
            (if flag "initial_multithreaded" then [ Parcoach.Pword.P 0 ]
             else []);
          provided_level =
            (match Option.bind level Mpisim.Thread_level.of_string with
            | Some l -> l
            | None -> Mpisim.Thread_level.Multiple);
          taint_filter = flag "taint_filter";
          interprocedural = flag "interprocedural";
          races = flag "races";
          requests = flag "requests";
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
  match Option.bind (Json.member "source" params) Json.to_str with
  | None -> error_response id "analyze: missing string parameter 'source'"
  | Some source -> (
      match
        match options_of_params params with
        | Error msg -> Error msg
        | Ok options -> (
            match only_of_params params with
            | Error msg -> Error msg
            | Ok only -> Ok (options, only))
      with
      | Error msg -> error_response id msg
      | Ok (options, only) -> (
          let jobs = Option.bind (Json.member "jobs" params) Json.to_int in
          let file =
            Option.bind (Json.member "file" params) Json.to_str
          in
          match jobs with
          | Some j when j < 1 -> error_response id "analyze: jobs must be >= 1"
          | _ -> (
              match analyze_source' t ~options ?jobs ?file source with
              | Error issues ->
                  Json.Obj
                    [
                      ("id", id);
                      ("ok", Json.Bool true);
                      ("valid", Json.Bool false);
                      ("issues", Json.Raw (Parcoach.Json_report.issues_json issues));
                    ]
              | Ok (a, func_json) ->
                  let report =
                    Parcoach.Driver.filter_classes a.report ~only
                  in
                  let report_json =
                    Parcoach.Timings.record a.timings "render" (fun () ->
                        Parcoach.Json_report.to_string ~issues:a.issues
                          ~func_json report)
                  in
                  let stats = Cache.stats t.cache in
                  Json.Obj
                    [
                      ("id", id);
                      ("ok", Json.Bool true);
                      ("valid", Json.Bool true);
                      ("report", Json.Raw report_json);
                      ( "warnings",
                        Json.Int (Parcoach.Driver.warning_count report) );
                      ( "cache",
                        Json.Obj
                          [
                            ("hits", Json.Int a.reused);
                            ("misses", Json.Int a.analysed);
                            ("entries", Json.Int stats.Cache.entries);
                          ] );
                      ( "timings",
                        Json.Raw (Parcoach.Json_report.timings_json a.timings) );
                    ])))

let stats_response t id =
  let s = Cache.stats t.cache in
  Mutex.lock t.chunk_lock;
  let chunks = Strtbl.length t.chunks in
  Mutex.unlock t.chunk_lock;
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
      ("chunks", Json.Int chunks);
      ( "memo_hits",
        Json.Obj
          [
            ("validation", Json.Int (Atomic.get t.validation_hits));
            ("fragments", Json.Int (Atomic.get t.fragment_hits));
          ] );
    ]

let handle_request t request =
  let id = Option.value ~default:Json.Null (Json.member "id" request) in
  let params =
    Option.value ~default:request (Json.member "params" request)
  in
  match Option.bind (Json.member "method" request) Json.to_str with
  | Some "analyze" -> analyze_response t id params
  | Some "ping" -> Json.Obj [ ("id", id); ("ok", Json.Bool true) ]
  | Some "stats" -> stats_response t id
  | Some "clear" ->
      Cache.clear t.cache;
      Mutex.lock t.chunk_lock;
      Strtbl.reset t.chunks;
      Mutex.unlock t.chunk_lock;
      Atomic.set t.validation_hits 0;
      Atomic.set t.fragment_hits 0;
      Json.Obj [ ("id", id); ("ok", Json.Bool true); ("cleared", Json.Bool true) ]
  | Some "shutdown" ->
      Json.Obj
        [ ("id", id); ("ok", Json.Bool true); ("shutdown", Json.Bool true) ]
  | Some m -> error_response id (Printf.sprintf "unknown method '%s'" m)
  | None -> error_response id "missing string field 'method'"

let handle_line t line =
  match Json.parse line with
  | Error msg -> Json.to_string (error_response Json.Null ("bad request: " ^ msg))
  | Ok request -> (
      match handle_request t request with
      | response -> Json.to_string response
      | exception exn ->
          let id = Option.value ~default:Json.Null (Json.member "id" request) in
          Json.to_string
            (error_response id ("internal error: " ^ Printexc.to_string exn)))

let is_shutdown line =
  match Json.parse line with
  | Ok request ->
      Option.bind (Json.member "method" request) Json.to_str
      = Some "shutdown"
  | Error _ -> false

let serve ?(pool = 1) t ic oc =
  let out_lock = Mutex.create () in
  let emit line =
    Mutex.lock out_lock;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock out_lock
  in
  let workers = if pool > 1 then Some (Pool.create ~jobs:pool ()) else None in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> None
    | line when String.length (String.trim line) = 0 -> loop ()
    | line ->
        if is_shutdown line then Some line
        else begin
          (match workers with
          | None -> emit (handle_line t line)
          | Some p -> ignore (Pool.submit p (fun () -> emit (handle_line t line))));
          loop ()
        end
  in
  let shutdown_line = loop () in
  (* Drain in-flight requests before answering the shutdown (or before
     returning on EOF), so every accepted request gets its response. *)
  Option.iter Pool.shutdown workers;
  Option.iter (fun line -> emit (handle_line t line)) shutdown_line

(** Daemon state and protocol handling (see the interface). *)

open Minilang

(* One cached function chunk: the chunk-relative parse, its structural
   digest (feeds the summary-key memo), and a memo of the last absolute
   form so a chunk that keeps its file position across requests is
   reused physically, with no location shifting at all. *)
type chunk_entry = {
  text : string;  (** Collision guard for the text digest. *)
  rel : Ast.func;
  fdigest : string;
  mutable abs : (string * int * int * Ast.func) option;
}

type t = {
  cache : Cache.t;
  asts : (string, Ast.program * (string * string) list option) Hashtbl.t;
      (** Whole-source AST cache, keyed by digest of (file, source), with
          the per-function digest memo when the chunked path built it.
          Re-sent identical sources skip the parser entirely. *)
  chunks : (string, chunk_entry) Hashtbl.t;
      (** Per-function parse cache, keyed by digest of the chunk text.
          An edited source re-parses only its changed chunks. *)
  ast_lock : Mutex.t;
  default_jobs : int option;
}

let ast_cache_capacity = 64
let chunk_cache_capacity = 2048

let create ?capacity ?jobs () =
  {
    cache = Cache.create ?capacity ();
    asts = Hashtbl.create 32;
    chunks = Hashtbl.create 256;
    ast_lock = Mutex.create ();
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

(* Parse via the per-function chunk cache: split the source, re-parse
   only chunks whose text is new, shift reused chunks onto their current
   file position.  Returns the program plus the per-function digest memo
   for {!Hash.keys}.  Raises [Chunk_fallback] whenever the chunked result
   could differ from a whole-file parse (unclean split, a chunk that does
   not parse to exactly one function) — the caller then runs the one-shot
   parser so results and errors are exactly its own. *)
let parse_chunked t ~file source =
  match Chunker.split source with
  | { Chunker.clean = false; _ } -> raise Chunk_fallback
  | { Chunker.chunks; _ } ->
      let memo = ref [] in
      let funcs =
        List.map
          (fun (c : Chunker.chunk) ->
            let key = Digest.string c.Chunker.text in
            Mutex.lock t.ast_lock;
            let hit =
              match Hashtbl.find_opt t.chunks key with
              | Some e when String.equal e.text c.Chunker.text -> Some e
              | _ -> None
            in
            Mutex.unlock t.ast_lock;
            let entry =
              match hit with
              | Some e -> e
              | None -> (
                  let p =
                    match
                      Validate.catch_syntax_error (fun () ->
                          Parser.parse_string ~file:"" c.Chunker.text)
                    with
                    | Ok p -> p
                    | Error _ -> raise Chunk_fallback
                  in
                  match p.Ast.funcs with
                  | [ f ] ->
                      let e =
                        {
                          text = c.Chunker.text;
                          rel = f;
                          fdigest = Hash.func_digest f;
                          abs = None;
                        }
                      in
                      Mutex.lock t.ast_lock;
                      if Hashtbl.length t.chunks >= chunk_cache_capacity then
                        Hashtbl.reset t.chunks;
                      Hashtbl.replace t.chunks key e;
                      Mutex.unlock t.ast_lock;
                      e
                  | _ -> raise Chunk_fallback)
            in
            let f =
              Mutex.lock t.ast_lock;
              let f =
                match entry.abs with
                | Some (af, al, ac, g)
                  when String.equal af file && al = c.Chunker.line
                       && ac = c.Chunker.col ->
                    g
                | _ ->
                    let g =
                      Chunker.shift_func ~file ~line:c.Chunker.line
                        ~col:c.Chunker.col entry.rel
                    in
                    entry.abs <- Some (file, c.Chunker.line, c.Chunker.col, g);
                    g
              in
              Mutex.unlock t.ast_lock;
              f
            in
            memo := (f.Ast.fname, entry.fdigest) :: !memo;
            f)
          chunks
      in
      ({ Ast.funcs }, Some !memo)

let parse_cached t tm ~file source =
  let key = Digest.string (file ^ "\x00" ^ source) in
  Mutex.lock t.ast_lock;
  let hit = Hashtbl.find_opt t.asts key in
  Mutex.unlock t.ast_lock;
  match hit with
  | Some cached -> cached
  | None ->
      let ((_, _) as result) =
        Parcoach.Timings.record tm "parse" (fun () ->
            try parse_chunked t ~file source
            with Chunk_fallback -> (Parser.parse_string ~file source, None))
      in
      Mutex.lock t.ast_lock;
      if Hashtbl.length t.asts >= ast_cache_capacity then Hashtbl.reset t.asts;
      Hashtbl.replace t.asts key result;
      Mutex.unlock t.ast_lock;
      result

let analyze_source t ?(options = Parcoach.Driver.default_options) ?jobs
    ?(file = "<request>") source =
  let tm = Parcoach.Timings.create () in
  match Validate.catch_syntax_error (fun () -> parse_cached t tm ~file source) with
  | Error issue -> Error [ issue ]
  | Ok (program, memo) -> (
      let issues =
        Parcoach.Timings.record tm "validate" (fun () ->
            Validate.check_program program)
      in
      match Validate.is_valid issues with
      | false -> Error issues
      | true ->
          let digest =
            Option.map
              (fun pairs ->
                let tbl = Hashtbl.create (List.length pairs) in
                List.iter (fun (n, d) -> Hashtbl.replace tbl n d) pairs;
                fun (f : Ast.func) -> Hashtbl.find_opt tbl f.Ast.fname)
              memo
          in
          let keys =
            Parcoach.Timings.record tm "hash" (fun () ->
                Hash.keys ?digest ~options program)
          in
          (* Summary-cache lookups: a hit must be structurally equal (the
             digest-collision guard) and is relocated onto the fresh
             function's source layout so the merged report is
             byte-identical to a cold run.  A relocated summary is written
             back so repeated requests at a stable layout skip the
             relocation pass entirely. *)
          let cached = Hashtbl.create (List.length keys) in
          List.iter
            (fun (f, key) ->
              match Cache.find t.cache key with
              | Some (cached_func, fr) when Ast.equal_func cached_func f ->
                  let fr' = Relocate.func_report ~cached:cached_func ~fresh:f fr in
                  if fr' != fr then Cache.replace t.cache key f fr';
                  Hashtbl.replace cached f.Ast.fname fr'
              | _ -> ())
            keys;
          let reuse f = Hashtbl.find_opt cached f.Ast.fname in
          let jobs =
            match jobs with Some _ as j -> j | None -> t.default_jobs
          in
          let report =
            Parcoach.Driver.analyze ~options ?jobs ~reuse ~timings:tm program
          in
          (* Populate the cache with this request's fresh results. *)
          List.iter2
            (fun (f, key) (fr : Parcoach.Driver.func_report) ->
              if not (Hashtbl.mem cached f.Ast.fname) then
                Cache.add t.cache key f fr)
            keys report.Parcoach.Driver.funcs;
          let reused = Hashtbl.length cached in
          Ok
            {
              report;
              issues;
              reused;
              analysed = List.length keys - reused;
              timings = tm;
            })

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
              match analyze_source t ~options ?jobs ?file source with
              | Error issues ->
                  Json.Obj
                    [
                      ("id", id);
                      ("ok", Json.Bool true);
                      ("valid", Json.Bool false);
                      ("issues", Json.Raw (Parcoach.Json_report.issues_json issues));
                    ]
              | Ok a ->
                  let report =
                    Parcoach.Driver.filter_classes a.report ~only
                  in
                  let report_json =
                    Parcoach.Timings.record a.timings "render" (fun () ->
                        Parcoach.Json_report.to_string ~issues:a.issues report)
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
                        Json.Raw (Parcoach.Timings.to_json a.timings) );
                    ])))

let stats_response t id =
  let s = Cache.stats t.cache in
  Mutex.lock t.ast_lock;
  let asts = Hashtbl.length t.asts in
  let chunks = Hashtbl.length t.chunks in
  Mutex.unlock t.ast_lock;
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
      ("asts", Json.Int asts);
      ("chunks", Json.Int chunks);
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
      Mutex.lock t.ast_lock;
      Hashtbl.reset t.asts;
      Hashtbl.reset t.chunks;
      Mutex.unlock t.ast_lock;
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

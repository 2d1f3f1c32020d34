(* serve: one op is one [Serve.Daemon.handle_line] round trip (jobs 1)
   on a daemon created during set-up, following a seeded editing session
   over the five catalog programs at large size. *)

(* A file of the session: its source with a marker slot at the end of
   [main] (the one catalog function nothing calls, so a marker edit
   changes exactly one summary key), split around the slot. *)
type file = {
  name : string;
  prefix : string;
  suffix : string;
  mutable marker : int;
  mutable shift : int;  (** Leading blank lines: layout-only edits. *)
}

let slot = 987_654_321

let edit_main marker (program : Minilang.Ast.program) =
  let stmt = Minilang.Ast.mk (Minilang.Ast.Compute (Minilang.Ast.Int marker)) in
  {
    Minilang.Ast.funcs =
      List.map
        (fun (f : Minilang.Ast.func) ->
          if String.equal f.Minilang.Ast.fname "main" then
            { f with Minilang.Ast.body = f.Minilang.Ast.body @ [ stmt ] }
          else f)
        program.Minilang.Ast.funcs;
  }

let split_at_slot text =
  let s = string_of_int slot in
  let n = String.length text and k = String.length s in
  let rec find i =
    if i + k > n then failwith "serve: marker slot not found"
    else if String.sub text i k = s then i
    else find (i + 1)
  in
  let i = find 0 in
  (String.sub text 0 i, String.sub text (i + k) (n - i - k))

(* JSON string body (no quotes) of [s]. *)
let escape s =
  let q = Serve.Json.to_string (Serve.Json.Str s) in
  String.sub q 1 (String.length q - 2)

let source f = String.make f.shift '\n' ^ f.prefix ^ string_of_int f.marker ^ f.suffix

let request ~id f =
  String.concat ""
    [
      "{\"id\":";
      string_of_int id;
      ",\"method\":\"analyze\",\"params\":{\"source\":\"";
      String.concat "" (List.init f.shift (fun _ -> "\\n"));
      escape f.prefix;
      string_of_int f.marker;
      escape f.suffix;
      "\",\"file\":\"";
      f.name;
      ".hml\",\"taint_filter\":true,\"interprocedural\":true,\"races\":true,\
       \"requests\":true,\"jobs\":1}}";
    ]

let ok_prefix id = Printf.sprintf "{\"id\":%d,\"ok\":true,\"valid\":true,\"report\":" id

type session = {
  daemon : Serve.Daemon.t;
  files : file array;
  mutable current : int;
  mutable plan : string array;  (** Request kinds of the current block. *)
  mutable order : int list;  (** Files still to visit in this tour. *)
  rng : Random.State.t;
}

(* The session runs in blocks of ten requests on one file: seven fresh
   single-function edits, one layout-only edit, one identical re-request
   (in a seeded order), then a switch to the next file of a seeded tour
   over all files.  Every seed thus spends the same share of requests on
   each kind and each file. *)
let block = [| "edit"; "edit"; "edit"; "edit"; "edit"; "edit"; "edit"; "layout"; "repeat"; "switch" |]

let setup (ctx : Common.ctx) =
  let files =
    Array.of_list
      (List.map
         (fun (e : Benchsuite.Catalog.entry) ->
           let program = e.Benchsuite.Catalog.generate_large () in
           let prefix, suffix = split_at_slot (Common.source_of (edit_main slot program)) in
           let name =
             String.map (fun c -> if c = ' ' then '_' else c) e.Benchsuite.Catalog.name
           in
           { name; prefix; suffix; marker = 0; shift = 0 })
         Benchsuite.Catalog.all)
  in
  let daemon = Serve.Daemon.create () in
  (* Warm-up: every file analysed once, cold. *)
  Array.iteri
    (fun i f ->
      let id = -1 - i in
      if not (String.starts_with ~prefix:(ok_prefix id)
                (Serve.Daemon.handle_line daemon (request ~id f)))
      then Fmt.failwith "serve: warm-up request for %s failed" f.name)
    files;
  { daemon; files; current = 0; plan = [||]; order = []; rng = Common.rng ctx 0x5e }

(* The kind of request [op] makes, after updating the session for it. *)
let step s ~op =
  let pos = op mod Array.length block in
  if pos = 0 then begin
    let plan = Common.shuffle s.rng (Array.sub block 0 (Array.length block - 1)) in
    s.plan <- Array.append plan [| "switch" |]
  end;
  let f = s.files.(s.current) in
  let kind = s.plan.(pos) in
  (match kind with
  | "edit" -> f.marker <- 1_000_000 + op
  | "layout" -> f.shift <- (f.shift + 1) mod 8
  | "switch" ->
      if s.order = [] then
        s.order <-
          Array.to_list
            (Common.shuffle s.rng (Array.init (Array.length s.files) Fun.id));
      s.current <- List.hd s.order;
      s.order <- List.tl s.order
  | _ -> ());
  kind

let layer_of_phase = function
  | "parse" -> Some "minilang.parse_ms"
  | "validate" -> Some "minilang.validate_ms"
  | "render" -> Some "parcoach.json_report_ms"
  | p -> Wl_compile.driver_phase p

let handle (ctx : Common.ctx) s line =
  let tr = ctx.Common.tr in
  if not tr.Trace.enabled then Serve.Daemon.handle_line s.daemon line
  else
    (* handle_line, recomposed so each of its three steps gets a span. *)
    match Trace.span tr "serve.json_decode" (fun () -> Serve.Json.parse line) with
    | Error msg -> "bad request: " ^ msg
    | Ok request ->
        let response =
          Trace.span tr "serve.handle" (fun () ->
              Serve.Daemon.handle_request s.daemon request)
        in
        (match Serve.Json.member "cache" response with
        | Some cache ->
            let get k = Option.value ~default:0 (Option.bind (Serve.Json.member k cache) Serve.Json.to_int) in
            Trace.count tr "serve.cache_hits" (get "hits");
            Trace.count tr "serve.funcs_reanalysed" (get "misses")
        | None -> ());
        (* The request's own per-phase timings (ns), as the daemon reports
           them. *)
        (match Serve.Json.member "timings" response with
        | Some (Serve.Json.Raw raw) -> (
            match Serve.Json.parse raw with
            | Ok (Serve.Json.Obj phases) ->
                List.iter
                  (fun (phase, v) ->
                    match (layer_of_phase phase, Serve.Json.to_int v) with
                    | Some name, Some ns -> Trace.add tr name (float_of_int ns /. 1e6)
                    | _ -> ())
                  phases
            | _ -> ())
        | _ -> ());
        Trace.span tr "serve.json_encode" (fun () -> Serve.Json.to_string response)

(* Every [check_every]-th op keeps a digest of its report for the
   byte-equality check made after the timed region. *)
let check_every = 50

let cold_report ~file source =
  let program = Minilang.Parser.parse_string ~file source in
  let issues = Minilang.Validate.check_program program in
  Parcoach.Json_report.to_string ~issues
    (Parcoach.Driver.analyze ~options:Wl_compile.options ~jobs:1 program)

(* The report a response embeds verbatim, between [ok_prefix] and the
   response's trailing ["warnings"] member. *)
let embedded_report ~id response =
  let p = String.length (ok_prefix id) in
  let tail = ",\"warnings\":" in
  let rec back i =
    if i < p then None
    else if String.sub response i (String.length tail) = tail then Some i
    else back (i - 1)
  in
  Option.map
    (fun i -> String.sub response p (i - p))
    (back (String.length response - String.length tail))

let run (ctx : Common.ctx) =
  let s, setup_s = Loop.repeat_timed (fun () -> setup ctx) in
  let kept = ref [] in
  let evictions () = (Serve.Cache.stats (Serve.Daemon.cache s.daemon)).Serve.Cache.evictions in
  let op i =
    let kind = step s ~op:i in
    let f = s.files.(s.current) in
    let response = handle ctx s (request ~id:i f) in
    Common.verdict ctx "%d %s %s %d %d" i kind f.name f.marker f.shift;
    if i mod check_every = 0 then
      kept :=
        (f, f.marker, f.shift, Option.map Digest.string (embedded_report ~id:i response))
        :: !kept;
    if String.starts_with ~prefix:(ok_prefix i) response then []
    else [ Printf.sprintf "%s request %d on %s failed" kind i f.name ]
  in
  let ev0 = evictions () in
  let loop =
    Loop.run ?tracer:(Common.tracer ctx) ~budget:ctx.Common.budget ~warmup:500 ~heap_at:2000
      ~nops:100 ~size:1 op
  in
  let ev = evictions () - ev0 in
  (* Known answer: each warm report is byte-equal to a cold analysis of
     the same source. *)
  let mismatches =
    List.filter_map
      (fun (f, marker, shift, digest) ->
        let report =
          cold_report ~file:(f.name ^ ".hml") (source { f with marker; shift })
        in
        if digest = Some (Digest.string report) then None
        else Some (Printf.sprintf "serve: warm report for %s differs from a cold analysis" f.name))
      !kept
  in
  let tr = ctx.Common.tr in
  let hits = Trace.counter tr "serve.cache_hits"
  and misses = Trace.counter tr "serve.funcs_reanalysed" in
  {
    Common.loop;
    setup_s;
    correct = loop.Loop.failed = 0 && mismatches = [];
    notes =
      Printf.sprintf
        "serve: %d warm reports byte-equal to cold analysis checked, %d summary \
         evictions during the run"
        (List.length !kept - List.length mismatches) ev
      :: mismatches;
    layer =
      [
        ("serve.cache_hit_share", if hits +. misses = 0. then 0. else hits /. (hits +. misses));
        ("serve.cache_evictions", float_of_int ev);
      ];
  }

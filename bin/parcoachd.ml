(** [parcoachd] — the persistent PARCOACH analysis daemon.

    Accepts analysis requests as line-delimited JSON on stdin (default)
    or over a Unix-domain socket, and keeps state warm across requests:
    parsed ASTs and a per-function summary cache keyed by a content hash
    of the function body, the analysis options and the (transitive)
    callee bodies — so an IDE or CI fleet re-analysing near-identical
    programs only pays for the functions that changed.  See
    {!Serve.Daemon} for the protocol. *)

open Cmdliner

let serve_socket daemon ~pool path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Fmt.epr "parcoachd: listening on %s@." path;
  (* Connections are served one after another against the shared warm
     state; each connection streams requests until EOF or shutdown. *)
  let rec accept_loop () =
    let client, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr client in
    let oc = Unix.out_channel_of_descr client in
    (try Serve.Daemon.serve ~pool daemon ic oc
     with Sys_error _ | End_of_file -> ());
    (try Unix.close client with Unix.Unix_error _ -> ());
    accept_loop ()
  in
  try accept_loop ()
  with Sys.Break ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    ()

let run socket pool jobs cache_size =
  Cli.check_at_least "pool" ~min:1 pool;
  Option.iter (Cli.check_at_least "jobs" ~min:1) jobs;
  Cli.check_at_least "cache-size" ~min:1 cache_size;
  let daemon = Serve.Daemon.create ~capacity:cache_size ?jobs () in
  match socket with
  | Some path -> serve_socket daemon ~pool path
  | None -> Serve.Daemon.serve ~pool daemon stdin stdout

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket instead of serving stdin/stdout. \
           An existing socket file at $(docv) is replaced.")

let pool =
  Arg.(
    value & opt int 1
    & info [ "pool" ] ~docv:"N"
        ~doc:
          "Handle up to $(docv) requests concurrently on a worker pool of \
           OCaml domains.  Responses are written line-atomically and \
           correlated by request id.  Their 'report', 'valid' and \
           'warnings' are identical whatever the pool width; the 'cache' \
           counters and the 'stats' totals are not, since concurrent \
           requests share the summary cache and interleave.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Default per-request analysis parallelism (OCaml domains); \
           requests can override with their own 'jobs' parameter.")

let cache_size =
  Arg.(
    value & opt int 4096
    & info [ "cache-size" ] ~docv:"N"
        ~doc:
          "Capacity of the per-function summary cache (entries; FIFO \
           eviction).")

let cmd =
  let doc =
    "persistent MPI-collective validation daemon with content-hashed \
     incremental re-analysis"
  in
  Cmd.v
    (Cmd.info "parcoachd" ~version:"0.6.0" ~doc)
    Term.(const run $ socket $ pool $ jobs $ cache_size)

let () = exit (Cmd.eval cmd)

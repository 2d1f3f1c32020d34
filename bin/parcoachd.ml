(** [parcoachd] — the persistent PARCOACH analysis daemon.

    Accepts analysis requests as line-delimited JSON on stdin (default)
    or over a Unix-domain socket, and keeps state warm across requests:
    parsed ASTs and a per-function summary cache keyed by a content hash
    of the function body, the analysis options and the (transitive)
    callee bodies — so an IDE or CI fleet re-analysing near-identical
    programs only pays for the functions that changed.  See
    {!Serve.Daemon} for the protocol. *)

open Cmdliner

let serve_socket daemon path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let remove () = try Unix.unlink path with Unix.Unix_error _ -> () in
  List.iter
    (fun (signal, code) ->
      Sys.set_signal signal (Sys.Signal_handle (fun _ -> remove (); exit code)))
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ];
  (* A client that hangs up makes the next write to it fail with
     [Sys_error], which drops only that connection. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fmt.epr "parcoachd: listening on %s@." path;
  (* Connections are served one after another against the shared warm
     state; each connection streams requests until EOF or shutdown, and
     a shutdown ends the daemon. *)
  let rec accept_loop () =
    let client, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr client in
    let oc = Unix.out_channel_of_descr client in
    let stop = try Serve.Daemon.serve daemon ic oc with Sys_error _ -> `Eof in
    (* Closing the channel also drops what a failed write left buffered. *)
    close_out_noerr oc;
    match stop with `Shutdown -> () | `Eof -> accept_loop ()
  in
  accept_loop ();
  Unix.close sock;
  remove ()

let run socket jobs cache_size =
  Option.iter (Cli.check_at_least "jobs" ~min:1) jobs;
  Cli.check_at_least "cache-size" ~min:1 cache_size;
  let daemon = Serve.Daemon.create ~capacity:cache_size ?jobs () in
  match socket with
  | Some path -> serve_socket daemon path
  | None -> ignore (Serve.Daemon.serve daemon stdin stdout)

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket instead of serving stdin/stdout. \
           An existing socket file at $(docv) is replaced.  Connections \
           are served one at a time, each until its client closes it or \
           sends $(b,shutdown): a client that stays connected without \
           closing (idle, or not reading its answers) blocks every other \
           client.")

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
    Term.(const run $ socket $ jobs $ cache_size)

let () = exit (Cmd.eval cmd)

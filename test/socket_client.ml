(** The socket lifecycle of [parcoachd --socket]: a client that writes
    many requests and hangs up without reading costs only its own
    connection, the next client's [ping] is answered, and a [shutdown]
    ends the daemon with exit 0 and removes its socket file.  Usage:
    [socket_client.exe PARCOACHD]; exits 1 with a message on failure. *)

let fail fmt = Printf.ksprintf failwith fmt

(* Poll [f] every 10 ms for up to 10 s. *)
let rec poll ?(tries = 1000) what f =
  match f () with
  | Some x -> x
  | None when tries > 0 ->
      Unix.sleepf 0.01;
      poll ~tries:(tries - 1) what f
  | None -> fail "timed out waiting for %s" what

let () =
  let path = Printf.sprintf "parcoachd-%d.sock" (Unix.getpid ()) in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process Sys.argv.(1)
      [| Sys.argv.(1); "--socket"; path; "--jobs"; "1" |]
      Unix.stdin Unix.stdout null
  in
  Unix.close null;
  (* Only now: the daemon must not inherit the ignored SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let status = ref None in
  let reap flags =
    if !status = None then
      match Unix.waitpid flags pid with
      | 0, _ -> ()
      | _, s -> status := Some s
  in
  let connect () =
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect s (Unix.ADDR_UNIX path) with
    | () -> Some s
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close s;
        reap [ Unix.WNOHANG ];
        if !status <> None then fail "parcoachd exited";
        None
  in
  let expect (ic, oc) line answer =
    output_string oc (line ^ "\n");
    flush oc;
    match input_line ic with
    | got when got = answer -> ()
    | got -> fail "%s answered %s, expected %s" line got answer
  in
  try
    let hangup = poll "the socket" connect in
    let oc = Unix.out_channel_of_descr hangup in
    for id = 1 to 200 do
      Printf.fprintf oc
        {|{"id":%d,"method":"analyze","params":{"source":"func main() {\n  MPI_Barrier();\n}\n"}}|}
        id;
      output_char oc '\n'
    done;
    close_out oc;
    let s = poll "the second connection" connect in
    let client = (Unix.in_channel_of_descr s, Unix.out_channel_of_descr s) in
    expect client {|{"id":1,"method":"ping"}|} {|{"id":1,"ok":true}|};
    expect client {|{"id":2,"method":"shutdown"}|}
      {|{"id":2,"ok":true,"shutdown":true}|};
    Unix.close s;
    match
      poll "parcoachd to exit after shutdown" (fun () ->
          reap [ Unix.WNOHANG ];
          !status)
    with
    | Unix.WEXITED 0 when not (Sys.file_exists path) -> ()
    | _ -> fail "parcoachd did not exit 0 and remove its socket file"
  with e ->
    (* The daemon is always reaped, and its socket file removed. *)
    if !status = None then Unix.kill pid Sys.sigkill;
    reap [];
    (try Sys.remove path with Sys_error _ -> ());
    prerr_endline ("socket lifecycle: " ^ Printexc.to_string e);
    exit 1

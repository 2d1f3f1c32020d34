(** Helpers shared by the command-line tools. *)

(* Numeric flags outside their range are usage errors (exit 2), reported
   before any work starts. *)
let check_at_least flag ~min v =
  if v < min then begin
    Fmt.epr "--%s must be at least %d (got %d)@." flag min v;
    exit 2
  end

(* The program named by a source FILE or by --bench NAME (a catalog
   benchmark or a reproducer); a usage error exits 2. *)
let read_program file bench =
  match (file, bench) with
  | Some path, None -> (
      match Minilang.Parser.read_file path with
      | Ok src -> Minilang.Parser.parse_string ~file:path src
      | Error reason ->
          Fmt.epr "cannot read %s: %s@." path reason;
          exit 2)
  | None, Some name -> (
      match Benchsuite.Catalog.find name with
      | Some entry -> entry.Benchsuite.Catalog.generate_small ()
      | None -> (
          match Benchsuite.Reproducers.find name with
          | Some entry -> Benchsuite.Reproducers.program entry
          | None ->
              Fmt.epr "unknown benchmark '%s'; known: %s@." name
                (String.concat ", "
                   (Benchsuite.Catalog.names @ Benchsuite.Reproducers.names));
              exit 2))
  | Some _, Some _ ->
      Fmt.epr "give either a file or --bench, not both@.";
      exit 2
  | None, None ->
      Fmt.epr "give a source file or --bench NAME@.";
      exit 2

(* Writes [text] to [path]; an unwritable path (a missing directory, a
   directory, no permission) is reported as "cannot write PATH: reason"
   and exits 2, as an unreadable input is. *)
let write_file path text =
  match
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)
  with
  | () -> ()
  | exception Sys_error msg ->
      let prefix = path ^ ": " in
      let reason =
        if String.starts_with ~prefix msg then
          String.sub msg (String.length prefix)
            (String.length msg - String.length prefix)
        else msg
      in
      Fmt.epr "cannot write %s: %s@." path reason;
      exit 2

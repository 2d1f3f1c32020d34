(** Tests for the JSON report emitter: structural validity (parsed with a
    tiny checker), escaping, and content. *)

open Parcoach

(* A minimal JSON well-formedness checker: consumes one value and
   requires the input to be fully consumed. *)
let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let adv () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        adv ();
        skip_ws ()
    | _ -> ()
  in
  let fail = ref false in
  let expect c = if peek () = Some c then adv () else fail := true in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' ->
          adv ();
          skip_ws ();
          if peek () = Some '}' then adv ()
          else begin
            members ();
            expect '}'
          end
      | Some '[' ->
          adv ();
          skip_ws ();
          if peek () = Some ']' then adv ()
          else begin
            elements ();
            expect ']'
          end
      | Some '"' -> string ()
      | Some ('-' | '0' .. '9') -> number ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | _ -> fail := true
    end
  and members () =
    string ();
    skip_ws ();
    expect ':';
    value ();
    skip_ws ();
    if peek () = Some ',' then begin
      adv ();
      skip_ws ();
      members ()
    end
  and elements () =
    value ();
    skip_ws ();
    if peek () = Some ',' then begin
      adv ();
      elements ()
    end
  and string () =
    expect '"';
    let rec scan () =
      match peek () with
      | Some '"' -> adv ()
      | Some '\\' ->
          adv ();
          adv ();
          scan ()
      | Some _ ->
          adv ();
          scan ()
      | None -> fail := true
    in
    scan ()
  and number () =
    let rec scan () =
      match peek () with
      | Some ('-' | '+' | '.' | 'e' | 'E' | '0' .. '9') ->
          adv ();
          scan ()
      | _ -> ()
    in
    scan ()
  and literal lit =
    String.iter (fun c -> if peek () = Some c then adv () else fail := true) lit
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let analyze src =
  Driver.analyze (Minilang.Parser.parse_string ~file:"test" src)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let tests =
  [
    Alcotest.test_case "escape handles quotes, backslashes, control chars"
      `Quick (fun () ->
        Alcotest.(check string) "escaped" "a\\\"b\\\\c\\nd"
          (Json_report.escape "a\"b\\c\nd");
        Alcotest.(check string) "control" "\\u0001" (Json_report.escape "\x01"));
    Alcotest.test_case "report of a buggy program is well-formed JSON" `Quick
      (fun () ->
        let report =
          analyze
            {|func main() { if (rank() == 0) { MPI_Barrier(); }
               pragma omp parallel { MPI_Allgather(1); }
               pragma omp parallel {
                 pragma omp single nowait { MPI_Bcast(1, 0); }
                 pragma omp single { MPI_Alltoall(2); } } }|}
        in
        let js = Json_report.to_string report in
        Alcotest.(check bool) "well-formed" true (json_well_formed js);
        Alcotest.(check bool) "has classes" true
          (contains js "collective mismatch"
          && contains js "multithreaded collective"
          && contains js "concurrent collective calls");
        Alcotest.(check bool) "has call sites" true (contains js "call_sites"));
    Alcotest.test_case "clean program reports zero warnings" `Quick (fun () ->
        let js = Json_report.to_string (analyze "func main() { MPI_Barrier(); }") in
        Alcotest.(check bool) "well-formed" true (json_well_formed js);
        Alcotest.(check bool) "zero" true (contains js "\"total_warnings\":0"));
    Alcotest.test_case "benchmark reports are well-formed" `Quick (fun () ->
        List.iter
          (fun (e : Benchsuite.Catalog.entry) ->
            let report =
              Driver.analyze (e.Benchsuite.Catalog.generate_small ())
            in
            Alcotest.(check bool)
              (e.Benchsuite.Catalog.name ^ " json")
              true
              (json_well_formed (Json_report.to_string report)))
          Benchsuite.Catalog.all);
    Alcotest.test_case "timings object escapes phase names" `Quick (fun () ->
        let tm = Timings.create () in
        let odd = "a\"b\\c\x01d\n" in
        Timings.add_ns tm "races" 1500.;
        Timings.add_ns tm odd 42.;
        let js = Json_report.timings_json tm in
        Alcotest.(check bool) "well-formed" true (json_well_formed js);
        match Serve.Json.parse js with
        | Error e -> Alcotest.fail e
        | Ok v ->
            Alcotest.(check (option int)) "plain phase" (Some 1500)
              (Option.bind (Serve.Json.member "races" v) Serve.Json.to_int);
            Alcotest.(check (option int)) "odd phase" (Some 42)
              (Option.bind (Serve.Json.member odd v) Serve.Json.to_int));
  ]

let suite = [ ("json.report", tests) ]

(** Tests for the streaming MUST-style overlay checker: byte-identity
    with the post-hoc {!Mustlike.Overlay.check}, bounded queues, and the
    engine hook. *)

open Mustlike

let ev ?(op = None) ?(root = None) ?(payload = 0) kind site :
    Mpisim.Engine.trace_event =
  { signature = (kind, op, root); payload; event_site = site }

let barrier site = ev Mpisim.Coll.Barrier site

let allreduce site = ev ~op:(Some Mpisim.Op.Sum) Mpisim.Coll.Allreduce site

(* Stream complete per-rank traces through a fresh checker from a single
   producer (round-robin by stream position, each rank closed at its
   last event) and return its report and stats: the streaming
   counterpart of [Overlay.check] on the same traces and fanout. *)
let stream_traces ~fanout (traces : Overlay.event list array) =
  let t = Stream.create ~fanout ~nranks:(Array.length traces) () in
  let traces = Array.map Array.of_list traces in
  let max_len =
    Array.fold_left (fun acc tr -> max acc (Array.length tr)) 0 traces
  in
  Array.iteri
    (fun r tr -> if Array.length tr = 0 then Stream.close_rank t ~rank:r)
    traces;
  for pos = 0 to max_len - 1 do
    Array.iteri
      (fun r tr ->
        if pos < Array.length tr then begin
          Stream.push t ~rank:r tr.(pos);
          if pos = Array.length tr - 1 then Stream.close_rank t ~rank:r
        end)
      traces
  done;
  Stream.result t

(* Full-report byte identity: verdict, divergence localization and cost
   metrics all agree. *)
let check_identity ~fanout traces =
  let stream, _ = stream_traces ~fanout traces in
  Alcotest.(check string)
    "streaming report = post-hoc report"
    (Overlay.report_to_string (Overlay.check ~fanout traces))
    (Overlay.report_to_string stream)

let identity_tests =
  [
    Alcotest.test_case "matching traces: identical reports" `Quick (fun () ->
        let trace = [ barrier "a"; allreduce "b"; barrier "c" ] in
        check_identity ~fanout:2 (Array.make 4 trace);
        check_identity ~fanout:2 (Array.make 8 trace);
        (* The recorded collectives of an 8-rank HERA run. *)
        let hera = Option.get (Benchsuite.Catalog.find "HERA") in
        let config =
          {
            Interp.Sim.default_config with
            nranks = 8;
            default_nthreads = 2;
            record_trace = false;
          }
        in
        let result = Interp.Sim.run ~config (hera.generate_small ()) in
        check_identity ~fanout:2
          (Mpisim.Engine.all_traces result.Interp.Sim.engine));
    Alcotest.test_case "divergence: identical localization" `Quick (fun () ->
        let t1 = [ barrier "a"; allreduce "b" ] in
        let t2 = [ barrier "a"; barrier "bad" ] in
        check_identity ~fanout:2 [| t1; t1; t2; t1 |];
        check_identity ~fanout:2
          (Array.init 8 (fun r -> if r = 5 then t2 else t1)));
    Alcotest.test_case "early-ended stream: identical <no event> groups"
      `Quick (fun () ->
        let long = [ barrier "a"; allreduce "b" ] in
        let short = [ barrier "a" ] in
        check_identity ~fanout:2
          (Array.init 8 (fun r -> if r < 4 then long else short)));
    Alcotest.test_case "single rank and empty traces" `Quick (fun () ->
        check_identity ~fanout:2 [| [ barrier "a"; allreduce "b" ] |];
        check_identity ~fanout:2 [| [] |];
        check_identity ~fanout:2 [| []; [] |]);
    Alcotest.test_case "fanout >= nranks (centralized overlay)" `Quick
      (fun () ->
        let trace = [ barrier "a"; barrier "b" ] in
        check_identity ~fanout:8 (Array.make 3 trace));
    Alcotest.test_case "single-event traces" `Quick (fun () ->
        check_identity ~fanout:2 (Array.make 5 [ barrier "a" ]);
        check_identity ~fanout:2
          [| [ barrier "a" ]; [ allreduce "a" ]; [ barrier "a" ] |]);
    Alcotest.test_case "long traces: match and a late divergence" `Quick
      (fun () ->
        let trace = List.init 50 (fun i -> barrier (string_of_int i)) in
        check_identity ~fanout:2 (Array.make 3 trace);
        let t2 = List.mapi (fun i e -> if i = 37 then allreduce "x" else e) trace in
        check_identity ~fanout:2 [| trace; t2; trace |]);
    Alcotest.test_case "invalid parameters rejected" `Quick (fun () ->
        let bad f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        bad (fun () -> Stream.create ~fanout:1 ~nranks:4 ());
        bad (fun () -> Stream.create ~fanout:2 ~nranks:0 ()));
  ]

let memory_tests =
  [
    Alcotest.test_case "long blocking loop: in-flight bounded by nranks" `Quick
      (fun () ->
        (* The master thread of each rank runs 500 rounds of two blocking
           collectives: no rank can run a round ahead, so the checker
           never holds more than one event per rank. *)
        let src =
          {|func main() {
             var x = 0;
             pragma omp parallel num_threads(3) {
               pragma omp master {
                 for i = 0 to 500 { MPI_Barrier(); x = MPI_Allreduce(i, sum); }
               }
             }
           }|}
        in
        let p = Minilang.Parser.parse_string ~file:"t" src in
        let nranks = 4 in
        let config =
          { Interp.Sim.default_config with nranks; default_nthreads = 3 }
        in
        let retained = Interp.Sim.run ~config p in
        let post = Overlay.check_engine ~fanout:2 retained.Interp.Sim.engine in
        let t = Stream.create ~fanout:2 ~nranks () in
        ignore (Interp.Sim.run ~config ~on_engine:(Stream.attach_engine t) p);
        let report, stats = Stream.result t in
        Alcotest.(check string)
          "streaming = post-hoc"
          (Overlay.report_to_string post)
          (Overlay.report_to_string report);
        Alcotest.(check int) "1000 rounds checked" (1000 * nranks)
          stats.Stream.events;
        Alcotest.(check bool)
          (Printf.sprintf "max in-flight %d <= nranks" stats.Stream.max_in_flight)
          true
          (stats.Stream.max_in_flight <= nranks));
    Alcotest.test_case "divergence verdict drains late producers" `Quick
      (fun () ->
        (* Rank 1 diverges at position 0 but keeps pushing; the checker
           counts the excess as drained instead of queueing it. *)
        let t = Stream.create ~fanout:2 ~nranks:2 () in
        Stream.push t ~rank:0 (barrier "a");
        for i = 0 to 99 do
          Stream.push t ~rank:1 (allreduce (string_of_int i))
        done;
        Stream.close_rank t ~rank:0;
        Stream.close_rank t ~rank:1;
        let report, stats = Stream.result t in
        Alcotest.(check bool) "divergence" false (Overlay.is_match report);
        Alcotest.(check int) "all events accounted for" 101
          (stats.Stream.events + stats.Stream.drained);
        Alcotest.(check int) "nothing queued after the verdict" 2
          stats.Stream.max_in_flight);
  ]

let engine_tests =
  [
    Alcotest.test_case "attached engine run matches post-hoc oracle" `Quick
      (fun () ->
        let src =
          {|func main() { MPI_Barrier(); var x = 0; x = MPI_Allreduce(1, sum);
             MPI_Bcast(x, 0); MPI_Barrier(); }|}
        in
        let p = Minilang.Parser.parse_string ~file:"t" src in
        let config = { Interp.Sim.default_config with nranks = 4 } in
        (* Oracle: the same program with full trace retention. *)
        let oracle = Interp.Sim.run ~config p in
        let post = Overlay.check_engine ~fanout:2 oracle.Interp.Sim.engine in
        (* Online: retention off, events streamed through the hook. *)
        let t = Stream.create ~fanout:2 ~nranks:4 () in
        let result =
          Interp.Sim.run ~config ~on_engine:(Stream.attach_engine t) p
        in
        let report, stats = Stream.result t in
        Alcotest.(check string)
          "streaming = post-hoc"
          (Overlay.report_to_string post)
          (Overlay.report_to_string report);
        Alcotest.(check int) "retention off: engine kept no traces" 0
          (List.length (Mpisim.Engine.rank_trace result.Interp.Sim.engine 0));
        Alcotest.(check int) "all arrivals streamed" 16 stats.Stream.events);
    Alcotest.test_case "attached engine catches a divergence online" `Quick
      (fun () ->
        let src =
          {|func main() { if (rank() == 0) { MPI_Barrier(); } else { MPI_Allgather(1); } }|}
        in
        let p = Minilang.Parser.parse_string ~file:"t" src in
        let config = { Interp.Sim.default_config with nranks = 3 } in
        let t = Stream.create ~fanout:2 ~nranks:3 () in
        ignore (Interp.Sim.run ~config ~on_engine:(Stream.attach_engine t) p);
        let report, _ = Stream.result t in
        Alcotest.(check bool) "divergence found online" false
          (Overlay.is_match report));
    Alcotest.test_case "rank-count mismatch rejected" `Quick (fun () ->
        let t = Stream.create ~fanout:2 ~nranks:2 () in
        let engine = Mpisim.Engine.create ~nranks:3 in
        (match Stream.attach_engine t engine with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
        ignore (Stream.result t));
  ]

let qcheck_tests =
  let open QCheck in
  let gen_trace =
    Gen.list_size (Gen.int_bound 6)
      (Gen.oneofl
         [
           barrier "s";
           allreduce "s";
           ev ~root:(Some 0) Mpisim.Coll.Bcast "s";
           ev ~op:(Some Mpisim.Op.Max) Mpisim.Coll.Reduce ~root:(Some 1) "s";
         ])
  in
  let arb =
    make
      ~print:(fun (traces, fanout) ->
        Printf.sprintf "%d traces, fanout %d" (Array.length traces) fanout)
      Gen.(
        map2
          (fun traces fanout -> (Array.of_list traces, fanout))
          (list_size (int_range 1 9) gen_trace)
          (int_range 2 8))
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make
         ~name:"streaming report is byte-identical to post-hoc" ~count:150 arb
         (fun (traces, fanout) ->
           let post = Overlay.check ~fanout traces in
           let stream, _ = stream_traces ~fanout traces in
           Overlay.report_to_string post = Overlay.report_to_string stream));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"stats events+drained cover the whole input"
         ~count:100 arb
         (fun (traces, fanout) ->
           let total =
             Array.fold_left (fun acc t -> acc + List.length t) 0 traces
           in
           let _, st = stream_traces ~fanout traces in
           st.Stream.events + st.Stream.drained = total));
  ]

let suite =
  [
    ("stream.identity", identity_tests);
    ("stream.memory", memory_tests);
    ("stream.engine", engine_tests);
    ("stream.qcheck", qcheck_tests);
  ]

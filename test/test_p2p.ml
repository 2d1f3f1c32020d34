(** Tests for point-to-point messaging: mailbox semantics, interpreter
    integration, and the scoping decision that the PARCOACH analyses
    ignore P2P traffic. *)

open Mpisim

let mailbox_tests =
  [
    Alcotest.test_case "send then receive" `Quick (fun () ->
        let mb = Mailbox.create ~nranks:2 in
        Mailbox.send mb ~src:0 ~dst:1 ~tag:7 ~value:42 ~site:"s";
        (match Mailbox.recv mb ~dst:1 ~src:0 ~tag:7 with
        | Some m -> Alcotest.(check int) "value" 42 m.Mailbox.value
        | None -> Alcotest.fail "expected a message");
        Alcotest.(check int) "consumed" 0 (Mailbox.pending mb 1));
    Alcotest.test_case "receive with no message returns None" `Quick (fun () ->
        let mb = Mailbox.create ~nranks:2 in
        Alcotest.(check bool) "none" true (Mailbox.recv mb ~dst:0 ~src:1 ~tag:0 = None));
    Alcotest.test_case "tags are matched" `Quick (fun () ->
        let mb = Mailbox.create ~nranks:2 in
        Mailbox.send mb ~src:0 ~dst:1 ~tag:1 ~value:11 ~site:"s";
        Alcotest.(check bool) "wrong tag not delivered" true
          (Mailbox.recv mb ~dst:1 ~src:0 ~tag:2 = None);
        Alcotest.(check bool) "right tag delivered" true
          (Mailbox.recv mb ~dst:1 ~src:0 ~tag:1 <> None));
    Alcotest.test_case "per-channel FIFO order" `Quick (fun () ->
        let mb = Mailbox.create ~nranks:2 in
        Mailbox.send mb ~src:0 ~dst:1 ~tag:0 ~value:1 ~site:"a";
        Mailbox.send mb ~src:0 ~dst:1 ~tag:0 ~value:2 ~site:"b";
        let v1 = Option.get (Mailbox.recv mb ~dst:1 ~src:0 ~tag:0) in
        let v2 = Option.get (Mailbox.recv mb ~dst:1 ~src:0 ~tag:0) in
        Alcotest.(check (pair int int)) "order" (1, 2)
          (v1.Mailbox.value, v2.Mailbox.value));
    Alcotest.test_case "any_source takes the oldest matching message" `Quick
      (fun () ->
        let mb = Mailbox.create ~nranks:3 in
        Mailbox.send mb ~src:2 ~dst:0 ~tag:0 ~value:22 ~site:"a";
        Mailbox.send mb ~src:1 ~dst:0 ~tag:0 ~value:11 ~site:"b";
        let m = Option.get (Mailbox.recv mb ~dst:0 ~src:Mailbox.any_source ~tag:0) in
        Alcotest.(check int) "oldest first" 22 m.Mailbox.value;
        Alcotest.(check int) "from rank 2" 2 m.Mailbox.src);
    Alcotest.test_case "selective receive preserves other messages" `Quick
      (fun () ->
        let mb = Mailbox.create ~nranks:3 in
        Mailbox.send mb ~src:1 ~dst:0 ~tag:0 ~value:1 ~site:"a";
        Mailbox.send mb ~src:2 ~dst:0 ~tag:0 ~value:2 ~site:"b";
        ignore (Option.get (Mailbox.recv mb ~dst:0 ~src:2 ~tag:0));
        Alcotest.(check int) "one left" 1 (Mailbox.pending mb 0));
    Alcotest.test_case "bad ranks rejected" `Quick (fun () ->
        let mb = Mailbox.create ~nranks:2 in
        match Mailbox.send mb ~src:0 ~dst:9 ~tag:0 ~value:0 ~site:"s" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "any_source matches only the requested tag" `Quick
      (fun () ->
        (* Three senders interleaved across two tags: the wildcard must
           walk past younger messages of the wrong tag and take the
           oldest one carrying the requested tag. *)
        let mb = Mailbox.create ~nranks:4 in
        Mailbox.send mb ~src:1 ~dst:0 ~tag:9 ~value:19 ~site:"a";
        Mailbox.send mb ~src:2 ~dst:0 ~tag:5 ~value:25 ~site:"b";
        Mailbox.send mb ~src:3 ~dst:0 ~tag:9 ~value:39 ~site:"c";
        Mailbox.send mb ~src:1 ~dst:0 ~tag:5 ~value:15 ~site:"d";
        let m1 =
          Option.get (Mailbox.recv mb ~dst:0 ~src:Mailbox.any_source ~tag:5)
        in
        Alcotest.(check (pair int int)) "oldest tag-5 first" (2, 25)
          (m1.Mailbox.src, m1.Mailbox.value);
        let m2 =
          Option.get (Mailbox.recv mb ~dst:0 ~src:Mailbox.any_source ~tag:5)
        in
        Alcotest.(check (pair int int)) "then the younger tag-5" (1, 15)
          (m2.Mailbox.src, m2.Mailbox.value);
        Alcotest.(check bool) "no tag-5 left" true
          (Mailbox.recv mb ~dst:0 ~src:Mailbox.any_source ~tag:5 = None);
        Alcotest.(check int) "tag-9 messages untouched" 2
          (Mailbox.pending mb 0));
    Alcotest.test_case "wildcard after targeted recv preserves channel FIFO"
      `Quick (fun () ->
        (* A targeted recv racing a wildcard on the same inbox: whichever
           messages the targeted recv skips must still be delivered to
           the wildcard oldest-first, and the targeted recv must not be
           able to reorder a single (src, tag) channel. *)
        let mb = Mailbox.create ~nranks:3 in
        Mailbox.send mb ~src:1 ~dst:0 ~tag:0 ~value:11 ~site:"a";
        Mailbox.send mb ~src:2 ~dst:0 ~tag:0 ~value:21 ~site:"b";
        Mailbox.send mb ~src:1 ~dst:0 ~tag:0 ~value:12 ~site:"c";
        Mailbox.send mb ~src:2 ~dst:0 ~tag:0 ~value:22 ~site:"d";
        (* Targeted recv from rank 2 takes 21 (oldest on the 2→0 channel),
           leaving 11, 12, 22. *)
        let t = Option.get (Mailbox.recv mb ~dst:0 ~src:2 ~tag:0) in
        Alcotest.(check int) "targeted takes channel head" 21 t.Mailbox.value;
        (* The wildcard then drains in arrival order: 11, 12, 22 — per
           channel still FIFO (11 before 12, 21 before 22). *)
        let drain () =
          (Option.get (Mailbox.recv mb ~dst:0 ~src:Mailbox.any_source ~tag:0))
            .Mailbox.value
        in
        let d1 = drain () in
        let d2 = drain () in
        let d3 = drain () in
        Alcotest.(check (list int)) "wildcard drains oldest-first"
          [ 11; 12; 22 ] [ d1; d2; d3 ];
        Alcotest.(check int) "inbox empty" 0 (Mailbox.pending mb 0));
    Alcotest.test_case "wildcard interleaving across three ranks" `Quick
      (fun () ->
        (* Senders 1, 2, 3 alternate; repeated wildcard receives must
           observe global arrival order regardless of source. *)
        let mb = Mailbox.create ~nranks:4 in
        List.iter
          (fun (src, value) ->
            Mailbox.send mb ~src ~dst:0 ~tag:7 ~value ~site:"s")
          [ (3, 30); (1, 10); (2, 20); (1, 11); (3, 31); (2, 21) ];
        let got =
          (* Explicit fold: list literals and [List.init] have
             unspecified element evaluation order. *)
          List.rev
            (List.fold_left
               (fun acc _ ->
                 let m =
                   Option.get
                     (Mailbox.recv mb ~dst:0 ~src:Mailbox.any_source ~tag:7)
                 in
                 (m.Mailbox.src, m.Mailbox.value) :: acc)
               [] [ 0; 1; 2; 3; 4; 5 ])
        in
        Alcotest.(check (list (pair int int)))
          "arrival order"
          [ (3, 30); (1, 10); (2, 20); (1, 11); (3, 31); (2, 21) ]
          got);
  ]

let parse src = Minilang.Parser.parse_string ~file:"test" src

let config ?(nranks = 3) ?(seed = 42) () =
  {
    Interp.Sim.nranks;
    default_nthreads = 2;
    schedule = `Random seed;
    max_steps = 500_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

let rank_prints result rank =
  List.filter_map
    (fun (r, _, v) -> if r = rank then Some v else None)
    (Interp.Sim.trace result)

let interp_tests =
  [
    Alcotest.test_case "ring exchange delivers neighbour values" `Quick
      (fun () ->
        let src =
          {|func main() {
             var left = 0;
             MPI_Send(rank() * 10, (rank() + 1) % size(), 0);
             left = MPI_Recv((rank() + size() - 1) % size(), 0);
             print(left);
           }|}
        in
        let result = Interp.Sim.run ~config:(config ()) (parse src) in
        Alcotest.(check bool) "finishes" true (Interp.Sim.is_finished result);
        Alcotest.(check (list int)) "rank 0 got rank 2's value" [ 20 ]
          (rank_prints result 0);
        Alcotest.(check (list int)) "rank 1 got rank 0's value" [ 0 ]
          (rank_prints result 1));
    Alcotest.test_case "receive blocks until the send happens" `Quick (fun () ->
        let src =
          {|func main() {
             var v = 0;
             if (rank() == 0) { v = MPI_Recv(1, 5); print(v); }
             if (rank() == 1) { compute(50); MPI_Send(99, 0, 5); }
           }|}
        in
        let result = Interp.Sim.run ~config:(config ~nranks:2 ()) (parse src) in
        Alcotest.(check bool) "finishes" true (Interp.Sim.is_finished result);
        Alcotest.(check (list int)) "value delivered" [ 99 ] (rank_prints result 0));
    Alcotest.test_case "receive with no sender deadlocks with diagnostics"
      `Quick (fun () ->
        let src =
          {|func main() { var v = 0; if (rank() == 0) { v = MPI_Recv(1, 0); } }|}
        in
        let result = Interp.Sim.run ~config:(config ~nranks:2 ()) (parse src) in
        match result.Interp.Sim.outcome with
        | Interp.Sim.Deadlock blocked ->
            Alcotest.(check bool) "mentions MPI_Recv" true
              (List.exists
                 (fun s ->
                   let rec has i =
                     i + 8 <= String.length s
                     && (String.sub s i 8 = "MPI_Recv" || has (i + 1))
                   in
                   has 0)
                 blocked)
        | o ->
            Alcotest.failf "expected deadlock, got %s"
              (Interp.Sim.outcome_to_string o));
    Alcotest.test_case "any_source receive" `Quick (fun () ->
        let src =
          {|func main() {
             var v = 0;
             if (rank() == 0) {
               v = MPI_Recv(0 - 1, 0);
               print(v);
               v = MPI_Recv(0 - 1, 0);
               print(v);
             } else {
               MPI_Send(rank(), 0, 0);
             }
           }|}
        in
        let result = Interp.Sim.run ~config:(config ()) (parse src) in
        Alcotest.(check bool) "finishes" true (Interp.Sim.is_finished result);
        Alcotest.(check int) "two prints" 2 (List.length (rank_prints result 0)));
    Alcotest.test_case "P2P mixes with collectives" `Quick (fun () ->
        let src =
          {|func main() {
             var v = rank();
             MPI_Send(v, (rank() + 1) % size(), 0);
             v = MPI_Recv((rank() + size() - 1) % size(), 0);
             v = MPI_Allreduce(v, sum);
             print(v);
           }|}
        in
        let result = Interp.Sim.run ~config:(config ()) (parse src) in
        Alcotest.(check bool) "finishes" true (Interp.Sim.is_finished result);
        Alcotest.(check (list int)) "sum of all" [ 3 ] (rank_prints result 0));
  ]

let scope_tests =
  [
    Alcotest.test_case "the analyses ignore P2P traffic" `Quick (fun () ->
        (* Rank-divergent P2P is legal MPI (and common); PARCOACH's scope
           is collectives, so no warnings here. *)
        let src =
          {|func main() {
             var v = 0;
             if (rank() == 0) { MPI_Send(1, 1, 0); }
             if (rank() == 1) { v = MPI_Recv(0, 0); }
             MPI_Barrier();
           }|}
        in
        let report = Parcoach.Driver.analyze (parse src) in
        Alcotest.(check int) "no warnings" 0 (Parcoach.Driver.warning_count report);
        (* And the program runs clean, instrumented or not. *)
        let inst = Parcoach.Instrument.instrument report Parcoach.Instrument.Selective in
        Alcotest.(check bool) "runs" true
          (Interp.Sim.is_finished (Interp.Sim.run ~config:(config ~nranks:2 ()) inst)));
    Alcotest.test_case "P2P round-trips through the printer" `Quick (fun () ->
        let src =
          {|func main() { var v = 0; MPI_Send(v + 1, (rank() + 1) % size(), 3);
             v = MPI_Recv(0 - 1, 3); }|}
        in
        let p = parse src in
        let printed = Minilang.Pretty.program_to_string p in
        Alcotest.(check bool) "equal" true
          (Minilang.Ast.equal_program p
             (Minilang.Parser.parse_string ~file:"rt" printed)));
    Alcotest.test_case "recv taints, send does not define" `Quick (fun () ->
        let src =
          {|func main() { var v = 0; v = MPI_Recv(0 - 1, 0);
             if (v > 0) { MPI_Barrier(); } }|}
        in
        let g = Cfg.Build.of_func (Minilang.Ast.main_func (parse src)) in
        let dep = Cfg.Actx.rank_dependent (Cfg.Actx.create ~params:[] g) in
        let conds =
          Cfg.Graph.filter_nodes g (function Cfg.Graph.Cond _ -> true | _ -> false)
        in
        Alcotest.(check bool) "received value is tainted" true
          (dep (List.hd conds)));
  ]

let limitation_tests =
  [
    Alcotest.test_case
      "CC cannot break a CC↔Recv cycle (documented limitation)" `Quick
      (fun () ->
        (* Rank 0 skips the whole else-branch: the other ranks block in
           MPI_Recv waiting for a send that sits behind rank 0's CC, so
           the CC rendezvous never completes.  The instrumented program
           deadlocks — like the real tool, CC converts collective-sequence
           divergence into clean aborts, not arbitrary P2P cycles. *)
        let src =
          {|func main() {
             var v = 0;
             if (rank() == 0) { compute(1); } else {
               v = MPI_Bcast(0, 0);
               MPI_Send(v, (rank() + 1) % size(), 1);
               v = MPI_Recv((rank() + size() - 1) % size(), 1);
             }
           }|}
        in
        let p = parse src in
        let report = Parcoach.Driver.analyze p in
        Alcotest.(check bool) "statically flagged" true
          (Parcoach.Driver.warning_count report > 0);
        let inst = Parcoach.Instrument.instrument report Parcoach.Instrument.Selective in
        match (Interp.Sim.run ~config:(config ()) inst).Interp.Sim.outcome with
        | Interp.Sim.Deadlock _ | Interp.Sim.Aborted _ -> ()
        | o ->
            Alcotest.failf "expected deadlock or abort, got %s"
              (Interp.Sim.outcome_to_string o));
  ]

let suite =
  [
    ("p2p.mailbox", mailbox_tests);
    ("p2p.limitation", limitation_tests);
    ("p2p.interp", interp_tests);
    ("p2p.scope", scope_tests);
  ]

(** Tests for the simulated MPI substrate: reduction operators, collective
    result semantics, thread levels, and the matching engine. *)

open Mpisim

let mk_call ?(kind = Coll.Barrier) ?op ?root ?(payload = 0) ?(site = "s") () =
  Coll.make kind ?op ?root ~payload ~site ()

let op_tests =
  [
    Alcotest.test_case "fold over each operator" `Quick (fun () ->
        Alcotest.(check int) "sum" 6 (Op.fold Op.Sum [ 1; 2; 3 ]);
        Alcotest.(check int) "prod" 24 (Op.fold Op.Prod [ 2; 3; 4 ]);
        Alcotest.(check int) "max" 9 (Op.fold Op.Max [ 3; 9; 1 ]);
        Alcotest.(check int) "min" 1 (Op.fold Op.Min [ 3; 9; 1 ]);
        Alcotest.(check int) "land" 0 (Op.fold Op.Land [ 1; 0; 1 ]);
        Alcotest.(check int) "lor" 1 (Op.fold Op.Lor [ 0; 0; 1 ]));
    Alcotest.test_case "fold of empty list is an error" `Quick (fun () ->
        match Op.fold Op.Sum [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "signature strings" `Quick (fun () ->
        (* The rendering the overlay reports: kind, then [op], then
           [root=r]. *)
        let spec (kind, op, root) =
          Fmt.str "%s%a%a" (Coll.kind_name kind)
            (fun ppf -> function None -> () | Some o -> Fmt.pf ppf "[%a]" Op.pp o)
            op
            (fun ppf -> function None -> () | Some r -> Fmt.pf ppf "[root=%d]" r)
            root
        in
        let kinds =
          Coll.
            [
              Barrier; Bcast; Reduce; Allreduce; Gather; Scatter; Allgather;
              Alltoall; Scan; Reduce_scatter; Cc_check;
            ]
        in
        let ops = None :: List.map Option.some Op.[ Sum; Prod; Max; Min; Land; Lor ] in
        let roots = [ None; Some 0; Some 3; Some (-1) ] in
        List.iter
          (fun kind ->
            List.iter
              (fun op ->
                List.iter
                  (fun root ->
                    let s = (kind, op, root) in
                    Alcotest.(check string) (spec s) (spec s)
                      (Coll.signature_to_string s))
                  roots)
              ops)
          kinds;
        Alcotest.(check string) "example" "MPI_Reduce[MPI_SUM][root=2]"
          (Coll.signature_to_string (Coll.Reduce, Some Op.Sum, Some 2)));
  ]

let result_tests =
  let contributions = [| 10; 20; 30 |] in
  let check name kind ?op ?root ~rank expected =
    Alcotest.test_case name `Quick (fun () ->
        let call = mk_call ~kind ?op ?root () in
        Alcotest.(check int) name expected
          (Coll.result_for call ~rank ~contributions))
  in
  [
    check "barrier yields 0" Coll.Barrier ~rank:1 0;
    check "bcast delivers root payload" Coll.Bcast ~root:2 ~rank:0 30;
    check "reduce at root" Coll.Reduce ~op:Op.Sum ~root:1 ~rank:1 60;
    check "reduce elsewhere" Coll.Reduce ~op:Op.Sum ~root:1 ~rank:0 0;
    check "allreduce everywhere" Coll.Allreduce ~op:Op.Max ~rank:2 30;
    check "gather at root sums" Coll.Gather ~root:0 ~rank:0 60;
    check "scatter is rank dependent" Coll.Scatter ~root:0 ~rank:2 12;
    check "allgather sums everywhere" Coll.Allgather ~rank:1 60;
    check "alltoall is rank dependent" Coll.Alltoall ~rank:1 61;
    check "scan is a prefix reduction" Coll.Scan ~op:Op.Sum ~rank:1 30;
    check "reduce_scatter prefix" Coll.Reduce_scatter ~op:Op.Sum ~rank:0 10;
  ]

let level_tests =
  [
    Alcotest.test_case "string round trip" `Quick (fun () ->
        List.iter
          (fun l ->
            Alcotest.(check bool) "round trip" true
              (Thread_level.of_string (Thread_level.to_string l) = Some l))
          [
            Thread_level.Single;
            Thread_level.Funneled;
            Thread_level.Serialized;
            Thread_level.Multiple;
          ]);
    Alcotest.test_case "max picks the stronger level" `Quick (fun () ->
        Alcotest.(check bool) "max" true
          (Thread_level.max Thread_level.Funneled Thread_level.Serialized
          = Thread_level.Serialized));
  ]

let engine_tests =
  [
    Alcotest.test_case "collective completes when all ranks arrive" `Quick
      (fun () ->
        let e = Engine.create ~nranks:3 in
        for rank = 0 to 2 do
          (match
             Engine.arrive e ~rank ~cookie:rank
               (mk_call ~kind:Coll.Allreduce ~op:Op.Sum ~payload:(rank + 1) ())
           with
          | Engine.Waiting -> ()
          | Engine.Busy_rank _ -> Alcotest.fail "unexpected busy");
          if rank < 2 then
            Alcotest.(check bool) "not complete yet" true
              (Engine.try_complete e = None)
        done;
        match Engine.try_complete e with
        | Some (Engine.Completed { results; _ }) ->
            Alcotest.(check (array int)) "sum everywhere" [| 6; 6; 6 |] results
        | _ -> Alcotest.fail "expected completion");
    Alcotest.test_case "mismatched kinds are reported" `Quick (fun () ->
        let e = Engine.create ~nranks:2 in
        ignore (Engine.arrive e ~rank:0 ~cookie:0 (mk_call ~kind:Coll.Barrier ()));
        ignore
          (Engine.arrive e ~rank:1 ~cookie:1
             (mk_call ~kind:Coll.Allreduce ~op:Op.Sum ()));
        match Engine.try_complete e with
        | Some (Engine.Mismatch calls) ->
            Alcotest.(check int) "both calls reported" 2 (List.length calls)
        | _ -> Alcotest.fail "expected mismatch");
    Alcotest.test_case "mismatched roots are reported" `Quick (fun () ->
        let e = Engine.create ~nranks:2 in
        ignore
          (Engine.arrive e ~rank:0 ~cookie:0 (mk_call ~kind:Coll.Bcast ~root:0 ()));
        ignore
          (Engine.arrive e ~rank:1 ~cookie:1 (mk_call ~kind:Coll.Bcast ~root:1 ()));
        match Engine.try_complete e with
        | Some (Engine.Mismatch _) -> ()
        | _ -> Alcotest.fail "expected mismatch");
    Alcotest.test_case "mismatched operators are reported" `Quick (fun () ->
        let e = Engine.create ~nranks:2 in
        ignore
          (Engine.arrive e ~rank:0 ~cookie:0
             (mk_call ~kind:Coll.Allreduce ~op:Op.Sum ()));
        ignore
          (Engine.arrive e ~rank:1 ~cookie:1
             (mk_call ~kind:Coll.Allreduce ~op:Op.Max ()));
        match Engine.try_complete e with
        | Some (Engine.Mismatch _) -> ()
        | _ -> Alcotest.fail "expected mismatch");
    Alcotest.test_case "second arrival from a rank is busy" `Quick (fun () ->
        let e = Engine.create ~nranks:2 in
        ignore (Engine.arrive e ~rank:0 ~cookie:0 (mk_call ~site:"first" ()));
        match Engine.arrive e ~rank:0 ~cookie:7 (mk_call ~site:"second" ()) with
        | Engine.Busy_rank { pending_site; pending_kind } ->
            Alcotest.(check string) "pending site" "first" pending_site;
            Alcotest.(check bool) "pending kind" true (pending_kind = Coll.Barrier)
        | Engine.Waiting -> Alcotest.fail "expected busy");
    Alcotest.test_case "CC agreement passes on equal colours" `Quick (fun () ->
        let e = Engine.create ~nranks:2 in
        ignore (Engine.arrive e ~rank:0 ~cookie:0 (Coll.cc_check ~color:4 ~site:"a"));
        ignore (Engine.arrive e ~rank:1 ~cookie:1 (Coll.cc_check ~color:4 ~site:"b"));
        match Engine.try_complete e with
        | Some (Engine.Completed _) ->
            Alcotest.(check int) "cc counted" 1 (Engine.cc_check_count e);
            Alcotest.(check int) "not a real collective" 0 (Engine.completed_count e)
        | _ -> Alcotest.fail "expected completion");
    Alcotest.test_case "CC divergence on different colours" `Quick (fun () ->
        let e = Engine.create ~nranks:2 in
        ignore (Engine.arrive e ~rank:0 ~cookie:0 (Coll.cc_check ~color:1 ~site:"a"));
        ignore (Engine.arrive e ~rank:1 ~cookie:1 (Coll.cc_check ~color:2 ~site:"b"));
        match Engine.try_complete e with
        | Some (Engine.Cc_divergence calls) ->
            Alcotest.(check int) "both reported" 2 (List.length calls)
        | _ -> Alcotest.fail "expected divergence");
    Alcotest.test_case "slots reset after completion" `Quick (fun () ->
        let e = Engine.create ~nranks:2 in
        ignore (Engine.arrive e ~rank:0 ~cookie:0 (mk_call ()));
        ignore (Engine.arrive e ~rank:1 ~cookie:1 (mk_call ()));
        ignore (Engine.try_complete e);
        Alcotest.(check bool) "rank 0 free" false (Engine.rank_waiting e 0);
        ignore (Engine.arrive e ~rank:0 ~cookie:0 (mk_call ()));
        Alcotest.(check bool) "rank 0 waiting again" true (Engine.rank_waiting e 0));
    Alcotest.test_case "history records completed collectives in order" `Quick
      (fun () ->
        let e = Engine.create ~nranks:1 in
        List.iter
          (fun kind ->
            ignore (Engine.arrive e ~rank:0 ~cookie:0 (mk_call ~kind ()));
            ignore (Engine.try_complete e))
          [ Coll.Barrier; Coll.Allgather; Coll.Barrier ];
        Alcotest.(check int) "three completed" 3 (Engine.completed_count e);
        Alcotest.(check bool) "ordered history" true
          (Engine.history e = [ Coll.Barrier; Coll.Allgather; Coll.Barrier ]);
        Alcotest.(check int) "barrier count" 2 (Engine.count_by_kind e Coll.Barrier));
    Alcotest.test_case "pending lists waiting ranks" `Quick (fun () ->
        let e = Engine.create ~nranks:3 in
        ignore (Engine.arrive e ~rank:1 ~cookie:5 (mk_call ~site:"x" ()));
        match Engine.pending e with
        | [ rc ] ->
            Alcotest.(check int) "rank" 1 rc.Engine.rank;
            Alcotest.(check int) "cookie" 5 rc.Engine.cookie
        | _ -> Alcotest.fail "expected one pending arrival");
    Alcotest.test_case "bad rank is rejected" `Quick (fun () ->
        let e = Engine.create ~nranks:2 in
        match Engine.arrive e ~rank:5 ~cookie:0 (mk_call ()) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* Property: for symmetric collectives every rank receives the same value;
   for rank-dependent ones (Scan) the prefix property holds. *)
let qcheck_tests =
  let open QCheck in
  let contributions_gen =
    Gen.(list_size (int_range 1 8) (int_range (-100) 100))
  in
  let arb = make ~print:(fun l -> String.concat "," (List.map string_of_int l)) contributions_gen in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"allreduce is symmetric across ranks" ~count:200 arb
         (fun contribs ->
           let contributions = Array.of_list contribs in
           let call = mk_call ~kind:Coll.Allreduce ~op:Op.Sum () in
           let r0 = Coll.result_for call ~rank:0 ~contributions in
           Array.to_list contributions
           |> List.mapi (fun rank _ -> Coll.result_for call ~rank ~contributions)
           |> List.for_all (fun r -> r = r0)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"scan at last rank equals allreduce" ~count:200 arb
         (fun contribs ->
           let contributions = Array.of_list contribs in
           let last = Array.length contributions - 1 in
           let scan = mk_call ~kind:Coll.Scan ~op:Op.Sum () in
           let allr = mk_call ~kind:Coll.Allreduce ~op:Op.Sum () in
           Coll.result_for scan ~rank:last ~contributions
           = Coll.result_for allr ~rank:0 ~contributions));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"op fold agrees with list fold" ~count:200 arb
         (fun contribs ->
           Op.fold Op.Max contribs = List.fold_left max (List.hd contribs) contribs));
  ]

let permutation_tests =
  let open QCheck in
  let arb =
    make
      ~print:(fun (perm_seed, kinds) ->
        Printf.sprintf "seed=%d kinds=%d" perm_seed (List.length kinds))
      Gen.(
        pair (int_bound 1000)
          (list_size (int_range 2 6)
             (oneofl [ Coll.Barrier; Coll.Allgather; Coll.Alltoall ])))
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"engine outcome is arrival-order independent" ~count:200
         arb
         (fun (perm_seed, kinds) ->
           (* Each rank i contributes call kinds.(i); shuffle arrivals. *)
           let nranks = List.length kinds in
           let outcome order =
             let e = Engine.create ~nranks in
             List.iter
               (fun rank ->
                 ignore
                   (Engine.arrive e ~rank ~cookie:rank
                      (mk_call ~kind:(List.nth kinds rank) ~payload:rank ())))
               order;
             match Engine.try_complete e with
             | Some (Engine.Completed _) -> "completed"
             | Some (Engine.Mismatch _) -> "mismatch"
             | Some (Engine.Cc_divergence _) -> "cc"
             | None -> "pending"
           in
           let identity = List.init nranks (fun i -> i) in
           let rng = Random.State.make [| perm_seed |] in
           let shuffled =
             List.map snd
               (List.sort compare
                  (List.map (fun i -> (Random.State.bits rng, i)) identity))
           in
           outcome identity = outcome shuffled));
  ]

let suite =
  [
    ("mpisim.op", op_tests);
    ("mpisim.permutation", permutation_tests);
    ("mpisim.results", result_tests);
    ("mpisim.levels", level_tests);
    ("mpisim.engine", engine_tests);
    ("mpisim.qcheck", qcheck_tests);
  ]

(** The domain fan-out: every item exactly once (zero and empty shards
    included), sequential order at [jobs:1], lowest-index failure
    re-raised. *)

let qcheck_tests =
  let open QCheck in
  let arb =
    make
      ~print:(fun (sizes, jobs) ->
        Printf.sprintf "sizes [%s], jobs %d"
          (String.concat "; " (List.map string_of_int sizes))
          jobs)
      Gen.(
        pair (list_size (int_bound 6) (int_bound 12)) (int_range 1 4))
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"every (shard, i) runs exactly once" ~count:80 arb
         (fun (sizes, jobs) ->
           let sizes = Array.of_list sizes in
           let counts =
             Array.map (fun n -> Array.init n (fun _ -> Atomic.make 0)) sizes
           in
           let bad_worker = Atomic.make false in
           let stolen =
             Par.iter_shards ~jobs sizes (fun ~worker ~shard i ->
                 if worker < 0 || worker >= jobs then Atomic.set bad_worker true;
                 Atomic.incr counts.(shard).(i))
           in
           Array.for_all (Array.for_all (fun c -> Atomic.get c = 1)) counts
           && (not (Atomic.get bad_worker))
           && stolen >= 0
           && stolen <= Array.fold_left ( + ) 0 sizes));
  ]

let tests =
  [
    Alcotest.test_case "jobs:1 runs in (shard, i) order on the caller" `Quick
      (fun () ->
        let seen = ref [] in
        let stolen =
          Par.iter_shards ~jobs:1 [| 2; 0; 3; 1 |] (fun ~worker ~shard i ->
              seen := (worker, shard, i) :: !seen)
        in
        Alcotest.(check (list (triple int int int)))
          "order"
          [ (0, 0, 0); (0, 0, 1); (0, 2, 0); (0, 2, 1); (0, 2, 2); (0, 3, 0) ]
          (List.rev !seen);
        Alcotest.(check int) "nothing stolen" 0 stolen);
    Alcotest.test_case "lowest failing index is re-raised" `Quick (fun () ->
        List.iter
          (fun jobs ->
            let ran = Array.init 40 (fun _ -> Atomic.make false) in
            (match
               Par.iter ~jobs 40 (fun ~worker:_ i ->
                   Atomic.set ran.(i) true;
                   if List.mem i [ 7; 9; 30 ] then failwith (string_of_int i))
             with
            | () -> Alcotest.fail "expected a failure"
            | exception Failure msg ->
                Alcotest.(check string)
                  (Printf.sprintf "jobs %d" jobs)
                  "7" msg);
            for i = 0 to 6 do
              Alcotest.(check bool) "items below the failure ran" true
                (Atomic.get ran.(i))
            done;
            let sum = Atomic.make 0 in
            Par.iter ~jobs 10 (fun ~worker:_ i -> ignore (Atomic.fetch_and_add sum i));
            Alcotest.(check int) "a later call still works" 45 (Atomic.get sum))
          [ 1; 4 ]);
    Alcotest.test_case "jobs:0 is rejected" `Quick (fun () ->
        match Par.iter ~jobs:0 3 (fun ~worker:_ _ -> ()) with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

let suite = [ ("par", tests); ("par.qcheck", qcheck_tests) ]

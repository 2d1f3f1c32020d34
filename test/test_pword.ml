(** Tests for parallelism words: computation over CFGs, the language
    [L = (S|PB*S)*], the concurrency relation, region-end simplification,
    and required thread levels. *)

open Parcoach

let parse src = Minilang.Parser.parse_string ~file:"test" src

let cfg_of src = Cfg.Build.of_func (Minilang.Ast.main_func (parse src))

let pword ?initial g = Pword.compute ?initial (Cfg.Actx.create ~params:[] g)

(* Word of the first collective node of [main]. *)
let word_of_first_collective ?initial src =
  let g = cfg_of src in
  let pw = pword ?initial g in
  match Cfg.Graph.collective_nodes g with
  | [] -> Alcotest.fail "no collective in program"
  | n :: _ -> Pword.pw pw n

let words_of_collectives src =
  let g = cfg_of src in
  let pw = pword g in
  List.map (fun n -> Pword.pw pw n) (Cfg.Graph.collective_nodes g)

let shape word =
  (* Forget region ids: P/S/B letters only, for easy comparison. *)
  String.concat ""
    (List.map (function Pword.P _ -> "P" | Pword.S _ -> "S" | Pword.B -> "B") word)

let check_shape name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) "word shape" expected
        (shape (word_of_first_collective src)))

let computation_tests =
  [
    check_shape "top level is the empty word" "func main() { MPI_Barrier(); }" "";
    check_shape "inside parallel" "func main() { pragma omp parallel { MPI_Barrier(); } }" "P";
    check_shape "inside parallel+single"
      "func main() { pragma omp parallel { pragma omp single { MPI_Barrier(); } } }"
      "PS";
    check_shape "inside parallel+master"
      "func main() { pragma omp parallel { pragma omp master { MPI_Barrier(); } } }"
      "PS";
    check_shape "orphaned single"
      "func main() { pragma omp single { MPI_Barrier(); } }" "S";
    check_shape "barrier before collective inside parallel"
      "func main() { pragma omp parallel { pragma omp barrier; pragma omp single { MPI_Barrier(); } } }"
      "PBS";
    check_shape "nested parallel without serialisation"
      "func main() { pragma omp parallel { pragma omp parallel { MPI_Barrier(); } } }"
      "PP";
    check_shape "nested parallel-single-parallel-single"
      {|func main() { pragma omp parallel { pragma omp single {
          pragma omp parallel { pragma omp single { MPI_Barrier(); } } } } }|}
      "PSPS";
    check_shape "region end pops its token"
      {|func main() { pragma omp parallel { pragma omp single nowait { compute(1); }
          MPI_Barrier(); } }|}
      "P";
    check_shape "single end adds a barrier"
      {|func main() { pragma omp parallel { pragma omp single { compute(1); }
          MPI_Barrier(); } }|}
      "PB";
    check_shape "collective after parallel region is at top level + B"
      "func main() { pragma omp parallel { compute(1); } MPI_Barrier(); }" "B";
    check_shape "inside worksharing for: still team context"
      {|func main() { pragma omp parallel { pragma omp for i = 0 to 4 {
          MPI_Barrier(); } } }|}
      "P";
    check_shape "inside critical: still team context"
      {|func main() { pragma omp parallel { pragma omp critical {
          MPI_Barrier(); } } }|}
      "P";
    check_shape "inside a section"
      {|func main() { pragma omp parallel { pragma omp sections { section {
          MPI_Barrier(); } } } }|}
      "PS";
    Alcotest.test_case "initial word prefixes the computation" `Quick (fun () ->
        let w =
          word_of_first_collective ~initial:[ Pword.P 0 ]
            "func main() { pragma omp single { MPI_Barrier(); } }"
        in
        Alcotest.(check string) "prefixed" "PS" (shape w));
    Alcotest.test_case "control flow does not change the word" `Quick (fun () ->
        let ws =
          words_of_collectives
            {|func main() { pragma omp parallel { pragma omp single {
                if (rank() == 0) { MPI_Barrier(); } else { MPI_Barrier(); } } } }|}
        in
        Alcotest.(check (list string)) "same words" [ "PS"; "PS" ]
          (List.map shape ws));
    Alcotest.test_case "loop around a barrier converges" `Quick (fun () ->
        let g =
          cfg_of
            {|func main() { for it = 0 to 3 { pragma omp parallel { compute(1); } }
               MPI_Barrier(); }|}
        in
        let pw = pword g in
        Alcotest.(check int) "no inconsistencies" 0
          (List.length pw.Pword.inconsistencies));
    Alcotest.test_case "words are defined for all reachable nodes" `Quick
      (fun () ->
        let g =
          cfg_of
            {|func main() { pragma omp parallel { pragma omp single { compute(1); } }
               if (rank() == 0) { MPI_Barrier(); } }|}
        in
        let pw = pword g in
        let reach = Cfg.Traversal.reachable g in
        Cfg.Graph.iter_nodes g (fun n ->
            if reach.(n.Cfg.Graph.id) then
              Alcotest.(check bool)
                (Printf.sprintf "node %d has a word" n.Cfg.Graph.id)
                true
                (Pword.pw_opt pw n.Cfg.Graph.id <> None)));
  ]

let language_tests =
  let w s =
    (* Build a word from a compact string: distinct ids per position. *)
    List.mapi
      (fun i c ->
        match c with
        | 'P' -> Pword.P i
        | 'S' -> Pword.S i
        | 'B' -> Pword.B
        | _ -> assert false)
      (List.init (String.length s) (String.get s))
  in
  let accepts = [ ""; "S"; "PS"; "PBS"; "PBBS"; "SS"; "PSS"; "PSPS"; "SB"; "PSB"; "BBS" ] in
  let rejects = [ "P"; "PP"; "PPS"; "PSP"; "PBP"; "PB"; "SP"; "PSPP" ] in
  List.map
    (fun s ->
      Alcotest.test_case (Printf.sprintf "L accepts %S" s) `Quick (fun () ->
          Alcotest.(check bool) "in L" true (Pword.in_language (w s))))
    accepts
  @ List.map
      (fun s ->
        Alcotest.test_case (Printf.sprintf "L rejects %S" s) `Quick (fun () ->
            Alcotest.(check bool) "not in L" false (Pword.in_language (w s))))
      rejects

let concurrency_tests =
  [
    Alcotest.test_case "different singles after common prefix are concurrent"
      `Quick (fun () ->
        let w1 = [ Pword.P 1; Pword.S 2 ] and w2 = [ Pword.P 1; Pword.S 5 ] in
        Alcotest.(check bool) "concurrent" true (Pword.concurrent w1 w2);
        Alcotest.(check (option (pair int int))) "regions" (Some (2, 5))
          (Pword.concurrent_region_pair w1 w2));
    Alcotest.test_case "same single region is not concurrent with itself" `Quick
      (fun () ->
        let w = [ Pword.P 1; Pword.S 2 ] in
        Alcotest.(check bool) "not concurrent" false (Pword.concurrent w w));
    Alcotest.test_case "barrier separation orders the regions" `Quick (fun () ->
        let w1 = [ Pword.P 1; Pword.S 2 ] in
        let w2 = [ Pword.P 1; Pword.B; Pword.S 5 ] in
        Alcotest.(check bool) "ordered" false (Pword.concurrent w1 w2));
    Alcotest.test_case "prefix words are not concurrent" `Quick (fun () ->
        let w1 = [ Pword.P 1 ] and w2 = [ Pword.P 1; Pword.S 5 ] in
        Alcotest.(check bool) "not concurrent" false (Pword.concurrent w1 w2));
    Alcotest.test_case "divergence must be at an S token" `Quick (fun () ->
        let w1 = [ Pword.P 1; Pword.P 2; Pword.S 3 ] in
        let w2 = [ Pword.P 1; Pword.S 4 ] in
        Alcotest.(check bool) "P vs S divergence is not the pattern" false
          (Pword.concurrent w1 w2));
  ]

let simplify_tests =
  [
    Alcotest.test_case "region end removes token and suffix" `Quick (fun () ->
        let word = [ Pword.P 1; Pword.S 2; Pword.B ] in
        let after =
          Pword.simplify_region_end word ~kind:(Cfg.Graph.Rsingle { nowait = false })
            ~region:2
        in
        Alcotest.(check string) "only P left" "P"
          (String.concat ""
             (List.map
                (function Pword.P _ -> "P" | Pword.S _ -> "S" | Pword.B -> "B")
                after)));
    Alcotest.test_case "tokenless regions do not simplify" `Quick (fun () ->
        let word = [ Pword.P 1; Pword.B ] in
        let after =
          Pword.simplify_region_end word ~kind:(Cfg.Graph.Rfor { nowait = false })
            ~region:9
        in
        Alcotest.(check bool) "unchanged" true (word = after));
    Alcotest.test_case "merge keeps LCP when only barriers differ" `Quick
      (fun () ->
        match Pword.merge [ Pword.P 1 ] [ Pword.P 1; Pword.B ] with
        | Ok w -> Alcotest.(check bool) "lcp" true (w = [ Pword.P 1 ])
        | Error _ -> Alcotest.fail "expected a merge");
    Alcotest.test_case "merge fails on conflicting structure" `Quick (fun () ->
        match Pword.merge [ Pword.P 1; Pword.S 2 ] [ Pword.P 1; Pword.P 3 ] with
        | Ok _ -> Alcotest.fail "expected a conflict"
        | Error _ -> ());
  ]

let level_tests =
  let kind_of_region_const kind _ = Some kind in
  [
    Alcotest.test_case "empty word requires SINGLE" `Quick (fun () ->
        Alcotest.(check bool) "single" true
          (Pword.required_level ~kind_of_region:(fun _ -> None) []
          = Mpisim.Thread_level.Single));
    Alcotest.test_case "master-only requires FUNNELED" `Quick (fun () ->
        Alcotest.(check bool) "funneled" true
          (Pword.required_level
             ~kind_of_region:(kind_of_region_const Cfg.Graph.Rmaster)
             [ Pword.P 1; Pword.S 2 ]
          = Mpisim.Thread_level.Funneled));
    Alcotest.test_case "single requires SERIALIZED" `Quick (fun () ->
        Alcotest.(check bool) "serialized" true
          (Pword.required_level
             ~kind_of_region:(kind_of_region_const (Cfg.Graph.Rsingle { nowait = false }))
             [ Pword.P 1; Pword.S 2 ]
          = Mpisim.Thread_level.Serialized));
    Alcotest.test_case "multithreaded word requires MULTIPLE" `Quick (fun () ->
        Alcotest.(check bool) "multiple" true
          (Pword.required_level ~kind_of_region:(fun _ -> None) [ Pword.P 1 ]
          = Mpisim.Thread_level.Multiple));
    Alcotest.test_case "thread level ordering" `Quick (fun () ->
        let open Mpisim.Thread_level in
        Alcotest.(check bool) "multiple includes all" true
          (List.for_all (includes Multiple) [ Single; Funneled; Serialized; Multiple ]);
        Alcotest.(check bool) "single includes only itself" true
          (includes Single Single && not (includes Single Funneled)));
  ]

(* Property tests: random structured programs have consistent words; the
   language membership agrees with a reference automaton. *)
let gen_word : Pword.token list QCheck.arbitrary =
  let open QCheck in
  let token =
    Gen.oneof
      [
        Gen.map (fun i -> Pword.P i) (Gen.int_bound 20);
        Gen.map (fun i -> Pword.S i) (Gen.int_bound 20);
        Gen.return Pword.B;
      ]
  in
  make
    ~print:(fun w -> Pword.to_string w)
    (Gen.list_size (Gen.int_bound 12) token)

(* Reference automaton for L = (S|PB*S)*: state 0 = between groups,
   state 1 = after P (inside a group, skipping barriers). *)
let reference_in_language word =
  let rec go state = function
    | [] -> state = 0
    | tok :: rest -> (
        match (state, tok) with
        | 0, (Pword.S _ | Pword.B) -> go 0 rest
        | 0, Pword.P _ -> go 1 rest
        | 1, Pword.B -> go 1 rest
        | 1, Pword.S _ -> go 0 rest
        | _, Pword.P _ -> false
        | _, (Pword.S _ | Pword.B) -> false)
  in
  go 0 word

let qcheck_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"L membership agrees with reference automaton"
         ~count:500 gen_word (fun w ->
           Pword.in_language w = reference_in_language w));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"concurrent relation is symmetric" ~count:500
         (pair gen_word gen_word) (fun (w1, w2) ->
           Pword.concurrent w1 w2 = Pword.concurrent w2 w1));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"concurrent is irreflexive" ~count:200 gen_word
         (fun w -> not (Pword.concurrent w w)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"stripping barriers preserves membership" ~count:300
         gen_word (fun w ->
           Pword.in_language w = Pword.in_language (Pword.strip_barriers w)));
  ]

let suite =
  [
    ("pword.computation", computation_tests);
    ("pword.language", language_tests);
    ("pword.concurrency", concurrency_tests);
    ("pword.simplify", simplify_tests);
    ("pword.levels", level_tests);
    ("pword.qcheck", qcheck_tests);
  ]

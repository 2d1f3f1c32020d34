(** Tests for the multicore analysis pipeline:

    - the packed CSR adjacency: O(1)-append edge buffers (large chains
      and high-out-degree fans build fast), freeze/invalidate semantics,
      hashed [has_edge], parallel-edge preservation;
    - the marker-based dominance frontiers against a reference
      reimplementation of the former [List.mem] Cytron loop (qcheck
      property over random programs, both directions);
    - the {!Cfg.Actx} memoization contract (physical reuse, cache
      population, taint keying) and {!Parcoach.Interproc} with a shared
      context;
    - determinism of the domain-parallel {!Parcoach.Driver.analyze}:
      [jobs:4] and [jobs:1] must produce identical warnings, CC sites and
      JSON reports on every sample and generated program. *)

open Cfg

(* ------------------------------------------------------------------ *)
(* Packed adjacency                                                    *)
(* ------------------------------------------------------------------ *)

(* [Graph.create] reserves ids 0/1 for entry/exit but the builder adds
   the nodes; mirror that here. *)
let new_graph name =
  let g = Graph.create name in
  ignore (Graph.add_node g Graph.Entry);
  ignore (Graph.add_node g Graph.Exit);
  g

(* A chain entry -> s0 -> s1 -> ... -> exit of [n] simple nodes. *)
let build_chain n =
  let g = new_graph "chain" in
  let prev = ref g.Graph.entry in
  for _ = 1 to n do
    let id = Graph.add_node g (Graph.Simple []) in
    Graph.add_edge g !prev id;
    prev := id
  done;
  Graph.add_edge g !prev g.Graph.exit;
  g

let test_chain_fast () =
  let n = 10_000 in
  let t0 = Sys.time () in
  let g = build_chain n in
  Graph.freeze g;
  (* Traversals and dominance must also survive a 10k-deep chain (the
     DFS and frontier walks are iterative, not recursive). *)
  let rpo = Traversal.rpo_array g in
  let dom = Dominance.compute g Dominance.Forward in
  let pdom = Dominance.compute g Dominance.Backward in
  ignore (Dominance.frontiers dom);
  ignore (Dominance.frontiers pdom);
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "all nodes reachable" (n + 2) (Array.length rpo);
  Alcotest.(check bool) "entry dominates exit" true
    (Dominance.dominates dom g.Graph.entry g.Graph.exit);
  (* The former [succs @ [b]] append made this quadratic; packed buffers
     build it in well under a second even on a loaded machine. *)
  Alcotest.(check bool)
    (Printf.sprintf "10k-node chain in %.3fs" elapsed)
    true (elapsed < 2.0)

let test_fan_fast () =
  (* One node with 10k out-edges: the adversarial case for the old
     list-append [add_edge] (quadratic in the out-degree). *)
  let n = 10_000 in
  let g = new_graph "fan" in
  let hub = Graph.add_node g (Graph.Simple []) in
  Graph.add_edge g g.Graph.entry hub;
  let t0 = Sys.time () in
  for _ = 1 to n do
    let leaf = Graph.add_node g (Graph.Simple []) in
    Graph.add_edge g hub leaf;
    Graph.add_edge g leaf g.Graph.exit
  done;
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "out-degree" n (Graph.out_degree g hub);
  Alcotest.(check int) "exit in-degree" n (Graph.in_degree g g.Graph.exit);
  Alcotest.(check bool)
    (Printf.sprintf "10k-edge fan in %.3fs" elapsed)
    true (elapsed < 2.0)

(* Statement tables hash a statement by its location and constructor:
   a program whose statements all sit at [Loc.none] is their worst case
   and must still analyse and lower fast. *)
let test_same_location_fast () =
  let open Minilang in
  let n = 1000 in
  let var i = Printf.sprintf "v%d" i in
  let decls = List.init n (fun i -> Ast.mk (Ast.Decl (var i, Ast.Int 0))) in
  let reads =
    List.init n (fun i ->
        Ast.mk
          (Ast.Omp_critical
             (None, [ Ast.mk (Ast.Assign (var i, Ast.Var (var i))) ])))
  in
  let program =
    {
      Ast.funcs =
        [
          {
            Ast.fname = "main";
            params = [];
            body =
              decls
              @ [ Ast.mk (Ast.Omp_parallel { num_threads = None; body = reads }) ];
            floc = Loc.none;
          };
        ];
    }
  in
  Alcotest.(check bool) "valid" true
    (Validate.is_valid (Validate.check_program program));
  Alcotest.(check bool) "over 2,000 statements" true
    (Ast.program_size program > 2 * n);
  let t0 = Sys.time () in
  let options =
    {
      Parcoach.Driver.default_options with
      races = true;
      requests = true;
      interprocedural = true;
    }
  in
  let report = Parcoach.Driver.analyze ~options program in
  ignore (Interp.Compile.lower program);
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "no warnings" 0 (Parcoach.Driver.warning_count report);
  Alcotest.(check bool)
    (Printf.sprintf "analysed and lowered in %.3fs" elapsed)
    true (elapsed < 1.0)

let test_freeze_invalidation () =
  let g = new_graph "freeze" in
  let a = Graph.add_node g (Graph.Simple []) in
  Graph.add_edge g g.Graph.entry a;
  Graph.add_edge g a g.Graph.exit;
  Graph.freeze g;
  Alcotest.(check bool) "frozen after freeze" true (Graph.is_frozen g);
  Alcotest.(check (list int)) "succs of entry" [ a ]
    (Graph.succs g g.Graph.entry);
  (* Mutation invalidates the packed form; the next query rebuilds it. *)
  let b = Graph.add_node g (Graph.Simple []) in
  Alcotest.(check bool) "thawed by add_node" false (Graph.is_frozen g);
  Graph.add_edge g a b;
  Graph.add_edge g b g.Graph.exit;
  Alcotest.(check (list int)) "succs refreshed" [ g.Graph.exit; b ]
    (Graph.succs g a);
  Alcotest.(check bool) "re-frozen by the query" true (Graph.is_frozen g);
  Alcotest.(check (list int)) "preds refreshed" [ a; b ]
    (Graph.preds g g.Graph.exit)

let test_has_edge_and_parallel_edges () =
  let g = new_graph "parallel" in
  let cond =
    Graph.add_node g
      (Graph.Cond
         {
           expr = Minilang.Ast.Int 1;
           stmt = Minilang.Ast.mk (Minilang.Ast.Compute (Minilang.Ast.Int 0));
         })
  in
  let join = Graph.add_node g (Graph.Simple []) in
  Graph.add_edge g g.Graph.entry cond;
  (* A [Cond] with two empty branches: both out-edges reach the same
     join.  The packed adjacency must keep both (branch order is
     significant), while [has_edge] answers membership. *)
  Graph.add_edge g cond join;
  Graph.add_edge g cond join;
  Graph.add_edge g join g.Graph.exit;
  Alcotest.(check (list int)) "parallel succs kept" [ join; join ]
    (Graph.succs g cond);
  Alcotest.(check int) "join in-degree counts both" 2 (Graph.in_degree g join);
  Alcotest.(check bool) "has_edge present" true (Graph.has_edge g cond join);
  Alcotest.(check bool) "has_edge absent" false (Graph.has_edge g join cond);
  Alcotest.(check bool) "has_edge entry->cond" true
    (Graph.has_edge g g.Graph.entry cond)

(* ------------------------------------------------------------------ *)
(* Frontier equivalence with the legacy List.mem implementation        *)
(* ------------------------------------------------------------------ *)

(* Reference reimplementation of the frontier computation as it was
   before the marker-array dedup: Cytron runner walks with a [List.mem]
   membership scan.  Only the dedup strategy differs, so both must agree
   on every graph. *)
let legacy_frontiers (t : Dominance.t) =
  let g = t.Dominance.g in
  let n = Graph.nb_nodes g in
  let df = Array.make n [] in
  let prevs id =
    match t.Dominance.dir with
    | Dominance.Forward -> Graph.preds g id
    | Dominance.Backward -> Graph.succs g id
  in
  let reachable id = t.Dominance.idom.(id) >= 0 in
  for id = 0 to n - 1 do
    if reachable id then begin
      let ps = List.filter reachable (prevs id) in
      if List.length ps >= 2 then
        List.iter
          (fun p ->
            let runner = ref p in
            while !runner <> t.Dominance.idom.(id) do
              if not (List.mem id df.(!runner)) then
                df.(!runner) <- id :: df.(!runner);
              runner := t.Dominance.idom.(!runner)
            done)
          ps
    end
  done;
  df

let check_frontiers_agree g dir =
  let t = Dominance.compute g dir in
  let fast = Dominance.frontiers t in
  let slow = legacy_frontiers t in
  let norm df id = List.sort_uniq Int.compare df.(id) in
  let ok = ref true in
  for id = 0 to Graph.nb_nodes g - 1 do
    if norm fast id <> norm slow id then ok := false
  done;
  !ok

let frontier_equivalence_prop =
  QCheck.Test.make ~count:60
    ~name:"marker frontiers = legacy List.mem frontiers (both directions)"
    Test_qcheck.arb_program (fun program ->
      List.for_all
        (fun g ->
          check_frontiers_agree g Dominance.Forward
          && check_frontiers_agree g Dominance.Backward)
        (Build.of_program program))

let test_frontier_equivalence_samples () =
  let dir = "../examples/programs" in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".hml" then
        let p = Minilang.Parser.parse_file (Filename.concat dir f) in
        List.iter
          (fun g ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s forward" f g.Graph.fname)
              true
              (check_frontiers_agree g Dominance.Forward);
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s backward" f g.Graph.fname)
              true
              (check_frontiers_agree g Dominance.Backward))
          (Build.of_program p))
    (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* Actx memoization                                                    *)
(* ------------------------------------------------------------------ *)

let test_actx_memoization () =
  let p =
    Minilang.Parser.parse_string ~file:"actx"
      {|func main(n) {
          var x = 0;
          if (n < 3) { x = MPI_Allreduce(1, sum); } else { compute(2); }
          MPI_Barrier();
        }|}
  in
  let g = List.hd (Build.of_program p) in
  let actx = Actx.create g in
  Alcotest.(check bool) "create freezes the graph" true (Graph.is_frozen g);
  Alcotest.(check (list string)) "fresh context is empty" []
    (Actx.populated actx);
  (* Every getter computes once and then returns the same structure. *)
  Alcotest.(check bool) "rpo reused" true (Actx.rpo actx == Actx.rpo actx);
  Alcotest.(check bool) "dom reused" true (Actx.dom actx == Actx.dom actx);
  Alcotest.(check bool) "pdom reused" true (Actx.pdom actx == Actx.pdom actx);
  Alcotest.(check bool) "frontiers reused" true
    (Actx.pdom_frontiers actx == Actx.pdom_frontiers actx);
  Alcotest.(check bool) "taint reused for equal params" true
    (Actx.rank_dependent actx ~params:[ "n" ]
    == Actx.rank_dependent actx ~params:[ "n" ]);
  let populated = Actx.populated actx in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " cached") true (List.mem name populated))
    [ "rpo"; "dom"; "pdom"; "pdom_frontiers"; "rank_dep" ];
  (* The cached structures agree with direct computation. *)
  Alcotest.(check (list int)) "rpo = Traversal.rpo_array"
    (Array.to_list (Traversal.rpo_array g))
    (Array.to_list (Actx.rpo actx));
  let direct = Dominance.compute g Dominance.Backward in
  Alcotest.(check (list int)) "pdom idom = direct"
    (Array.to_list direct.Dominance.idom)
    (Array.to_list (Actx.pdom actx).Dominance.idom);
  Alcotest.(check (list int)) "pdf_plus = Dominance.pdf_plus"
    (Dominance.pdf_plus g (Graph.collective_nodes g))
    (Actx.pdf_plus actx (Graph.collective_nodes g));
  (* Phase 3 builds what its sites need, and nothing for a function
     without any: no traversal, no post-dominator tree, no taint. *)
  let phase3 ?call_collects src =
    let g =
      List.hd
        (Build.of_program (Minilang.Parser.parse_string ~file:"actx-lazy" src))
    in
    let actx = Actx.create g in
    let r =
      Parcoach.Interproc.analyze ?call_collects ~actx g ~taint_filter:true
        ~params:[ "n" ]
    in
    (r, Actx.populated actx)
  in
  let siteless =
    {|func main(n) {
        var x = n;
        if (x < 3) { compute(x); } else { helper(x); }
      }|}
  in
  List.iter
    (fun (what, call_collects) ->
      let r, populated = phase3 ?call_collects siteless in
      Alcotest.(check int) (what ^ ": no class") 0
        (List.length r.Parcoach.Interproc.classes);
      Alcotest.(check (list string)) (what ^ ": nothing built") [] populated)
    [
      ("intraprocedural", None);
      ("non-collecting call", Some (fun _ -> false));
    ];
  let r, populated =
    phase3 {|func main(n) { var x = n; MPI_Barrier(); compute(x); }|}
  in
  Alcotest.(check int) "straight-line collective: one class" 1
    (List.length r.Parcoach.Interproc.classes);
  Alcotest.(check bool) "straight-line collective: taint not built" false
    (List.mem "rank_dep" populated);
  let r, populated =
    phase3
      ~call_collects:(String.equal "helper")
      {|func main(n) {
          if (rank() == 0) { helper(n); }
        }|}
  in
  Alcotest.(check int) "call-only site flagged" 1
    (List.length r.Parcoach.Interproc.flagged);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("call-only site: " ^ name ^ " built") true
        (List.mem name populated))
    [ "rank_dep"; "pdom" ]

let test_interproc_with_actx () =
  let p =
    Minilang.Parser.parse_string ~file:"interproc-actx"
      {|func main(n) {
          if (rank() == 0) { MPI_Barrier(); }
          MPI_Allgather(1);
        }|}
  in
  let g = List.hd (Build.of_program p) in
  let actx = Actx.create g in
  let with_ctx =
    Parcoach.Interproc.analyze ~actx g ~taint_filter:true ~params:[ "n" ]
  in
  let fresh = Parcoach.Interproc.analyze g ~taint_filter:true ~params:[ "n" ] in
  Alcotest.(check bool) "same classes" true
    (with_ctx.Parcoach.Interproc.classes = fresh.Parcoach.Interproc.classes);
  Alcotest.(check (list int)) "same CC sites"
    (Parcoach.Interproc.cc_sites fresh)
    (Parcoach.Interproc.cc_sites with_ctx);
  Alcotest.check_raises "foreign context rejected"
    (Invalid_argument "Interproc.analyze: actx belongs to a different graph")
    (fun () ->
      let other = Actx.create (new_graph "other") in
      ignore
        (Parcoach.Interproc.analyze ~actx:other g ~taint_filter:false
           ~params:[]))

(* ------------------------------------------------------------------ *)
(* Domain-parallel driver determinism                                  *)
(* ------------------------------------------------------------------ *)

let check_jobs_deterministic name options program =
  let seq = Parcoach.Driver.analyze ~options ~jobs:1 program in
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "%s (jobs %d)" name jobs in
      let par = Parcoach.Driver.analyze ~options ~jobs program in
      Alcotest.(check bool)
        (name ^ ": warnings identical")
        true
        (Parcoach.Driver.all_warnings seq = Parcoach.Driver.all_warnings par);
      List.iter2
        (fun (a : Parcoach.Driver.func_report)
             (b : Parcoach.Driver.func_report) ->
          Alcotest.(check string) (name ^ ": func order")
            a.Parcoach.Driver.fname b.Parcoach.Driver.fname;
          Alcotest.(check (list int))
            (name ^ "/" ^ a.Parcoach.Driver.fname ^ ": CC sites")
            a.Parcoach.Driver.cc_sites b.Parcoach.Driver.cc_sites)
        seq.Parcoach.Driver.funcs par.Parcoach.Driver.funcs;
      Alcotest.(check string)
        (name ^ ": JSON byte-identical")
        (Parcoach.Json_report.to_string seq)
        (Parcoach.Json_report.to_string par))
    [ 2; 4 ]

let full_options =
  {
    Parcoach.Driver.default_options with
    Parcoach.Driver.taint_filter = true;
    Parcoach.Driver.interprocedural = true;
  }

let test_parallel_determinism_samples () =
  let dir = "../examples/programs" in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".hml" then begin
        let p = Minilang.Parser.parse_file (Filename.concat dir f) in
        check_jobs_deterministic f Parcoach.Driver.default_options p;
        check_jobs_deterministic (f ^ "+taint+interproc") full_options p
      end)
    (Sys.readdir dir)

let test_parallel_determinism_generated () =
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let p = e.Benchsuite.Catalog.generate_small () in
      check_jobs_deterministic e.Benchsuite.Catalog.name
        Parcoach.Driver.default_options p;
      check_jobs_deterministic
        (e.Benchsuite.Catalog.name ^ "+taint+interproc")
        full_options p)
    Benchsuite.Catalog.all;
  (* Every Figure-1 program's functions, twice over under fresh names:
     more functions than domains. *)
  let funcs =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun (e : Benchsuite.Catalog.entry) ->
            List.map
              (fun (f : Minilang.Ast.func) ->
                {
                  f with
                  Minilang.Ast.fname =
                    f.Minilang.Ast.fname ^ "__c" ^ string_of_int k;
                })
              (e.Benchsuite.Catalog.generate ()).Minilang.Ast.funcs)
          Benchsuite.Catalog.all)
      [ 0; 1 ]
  in
  check_jobs_deterministic "replicated catalog" Parcoach.Driver.default_options
    { Minilang.Ast.funcs }

let parallel_determinism_prop =
  QCheck.Test.make ~count:25
    ~name:"Driver.analyze jobs:4 = jobs:1 on random programs"
    Test_qcheck.arb_program (fun program ->
      let seq = Parcoach.Driver.analyze ~jobs:1 program in
      let par = Parcoach.Driver.analyze ~jobs:4 program in
      Parcoach.Driver.all_warnings seq = Parcoach.Driver.all_warnings par
      && Parcoach.Json_report.to_string seq
         = Parcoach.Json_report.to_string par)

let test_jobs_validation () =
  let p = Minilang.Parser.parse_string ~file:"v" {|func main() { compute(1); }|} in
  Alcotest.check_raises "jobs:0 rejected"
    (Invalid_argument "Driver.analyze: jobs must be >= 1") (fun () ->
      ignore (Parcoach.Driver.analyze ~jobs:0 p));
  (* More jobs than functions is clamped, not an error. *)
  ignore (Parcoach.Driver.analyze ~jobs:64 p)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "perf.packed-graph",
      [
        Alcotest.test_case "10k-node chain builds and analyses fast" `Quick
          test_chain_fast;
        Alcotest.test_case "10k-edge fan builds fast" `Quick test_fan_fast;
        Alcotest.test_case "same-location statements analyse fast" `Quick
          test_same_location_fast;
        Alcotest.test_case "freeze / mutation invalidation" `Quick
          test_freeze_invalidation;
        Alcotest.test_case "has_edge and parallel edges" `Quick
          test_has_edge_and_parallel_edges;
      ] );
    ( "perf.frontiers",
      [
        Alcotest.test_case "sample programs: marker = legacy" `Quick
          test_frontier_equivalence_samples;
        QCheck_alcotest.to_alcotest frontier_equivalence_prop;
      ] );
    ( "perf.actx",
      [
        Alcotest.test_case "memoization contract" `Quick test_actx_memoization;
        Alcotest.test_case "interproc shares the context" `Quick
          test_interproc_with_actx;
      ] );
    ( "perf.parallel-driver",
      [
        Alcotest.test_case "sample programs: jobs 4 = jobs 1" `Quick
          test_parallel_determinism_samples;
        Alcotest.test_case "generated benchmarks: jobs 4 = jobs 1" `Quick
          test_parallel_determinism_generated;
        QCheck_alcotest.to_alcotest parallel_determinism_prop;
        Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
      ] );
  ]

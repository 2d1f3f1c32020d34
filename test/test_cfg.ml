(** Tests for the CFG construction, dominance machinery and dataflow
    analyses. *)

open Cfg

let parse src = Minilang.Parser.parse_string ~file:"test" src

let cfg_of src = Build.of_func (Minilang.Ast.main_func (parse src))

(* PDF+ of a node set, as the static passes read it. *)
let pdf_plus g set = Actx.pdf_plus (Actx.create ~params:[] g) set

let count_kind g p = List.length (Graph.filter_nodes g p)

let build_tests =
  [
    Alcotest.test_case "entry and exit are nodes 0 and 1" `Quick (fun () ->
        let g = cfg_of "func main() { }" in
        Alcotest.(check bool) "entry kind" true (Graph.kind g Graph.entry_id = Graph.Entry);
        Alcotest.(check bool) "exit kind" true (Graph.kind g Graph.exit_id = Graph.Exit);
        Alcotest.(check (list int)) "edge" [ Graph.exit_id ] (Graph.succs g Graph.entry_id));
    Alcotest.test_case "straight-line statements share a block" `Quick (fun () ->
        let g = cfg_of "func main() { var a = 1; a = 2; compute(a); print(a); }" in
        Alcotest.(check int) "one simple block" 1
          (count_kind g (function Graph.Simple (_ :: _) -> true | _ -> false)));
    Alcotest.test_case "collective gets its own node" `Quick (fun () ->
        let g = cfg_of "func main() { var a = 1; MPI_Barrier(); a = 2; }" in
        Alcotest.(check int) "one collective" 1 (List.length (Graph.collective_nodes g)));
    Alcotest.test_case "if produces cond with true branch first" `Quick (fun () ->
        let g = cfg_of "func main() { if (rank() == 0) { compute(1); } else { compute(2); } }" in
        let conds = Graph.filter_nodes g (function Graph.Cond _ -> true | _ -> false) in
        Alcotest.(check int) "one cond" 1 (List.length conds);
        let c = List.hd conds in
        Alcotest.(check int) "two successors" 2 (List.length (Graph.succs g c)));
    Alcotest.test_case "while produces a back edge" `Quick (fun () ->
        let g = cfg_of "func main() { var i = 0; while (i < 3) { i = i + 1; } }" in
        let conds = Graph.filter_nodes g (function Graph.Cond _ -> true | _ -> false) in
        let c = List.hd conds in
        Alcotest.(check bool) "back edge exists" true
          (List.exists (fun p -> Traversal.path_exists g c p) (Graph.preds g c)));
    Alcotest.test_case "for desugars to init + cond + incr" `Quick (fun () ->
        let g = cfg_of "func main() { for i = 0 to 4 { compute(i); } }" in
        Alcotest.(check int) "one cond" 1
          (count_kind g (function Graph.Cond _ -> true | _ -> false)));
    Alcotest.test_case "parallel region: begin, end, implicit barrier" `Quick
      (fun () ->
        let g = cfg_of "func main() { pragma omp parallel { compute(1); } }" in
        Alcotest.(check int) "one begin" 1
          (count_kind g (function
            | Graph.Omp_begin { kind = Graph.Rparallel; _ } -> true
            | _ -> false));
        Alcotest.(check int) "one end" 1
          (count_kind g (function
            | Graph.Omp_end { kind = Graph.Rparallel; _ } -> true
            | _ -> false));
        Alcotest.(check int) "one implicit barrier" 1
          (count_kind g (function
            | Graph.Barrier_node { implicit = true; _ } -> true
            | _ -> false)));
    Alcotest.test_case "single nowait has no implicit barrier" `Quick (fun () ->
        let g =
          cfg_of
            "func main() { pragma omp parallel { pragma omp single nowait { compute(1); } } }"
        in
        (* only the parallel end barrier remains *)
        Alcotest.(check int) "one implicit barrier" 1
          (count_kind g (function
            | Graph.Barrier_node { implicit = true; _ } -> true
            | _ -> false)));
    Alcotest.test_case "omp_end region points at its begin" `Quick (fun () ->
        let g = cfg_of "func main() { pragma omp parallel { pragma omp single { compute(1); } } }" in
        List.iter
          (fun id ->
            match Graph.kind g id with
            | Graph.Omp_end { region; _ } -> (
                match Graph.kind g region with
                | Graph.Omp_begin _ -> ()
                | _ -> Alcotest.fail "region id is not a begin node")
            | _ -> ())
          (Graph.filter_nodes g (fun _ -> true)));
    Alcotest.test_case "sections: one S region per section" `Quick (fun () ->
        let g =
          cfg_of
            "func main() { pragma omp sections { section { compute(1); } section { compute(2); } } }"
        in
        Alcotest.(check int) "two section begins" 2
          (count_kind g (function
            | Graph.Omp_begin { kind = Graph.Rsection; _ } -> true
            | _ -> false));
        Alcotest.(check int) "one dispatch" 1
          (count_kind g (function
            | Graph.Omp_begin { kind = Graph.Rsections _; _ } -> true
            | _ -> false)));
    Alcotest.test_case "return connects to exit and kills fallthrough" `Quick
      (fun () ->
        let g = cfg_of "func main() { return; compute(1); }" in
        Alcotest.(check int) "no simple blocks (dead code dropped)" 0
          (count_kind g (function Graph.Simple (_ :: _) -> true | _ -> false));
        Alcotest.(check int) "one return node" 1
          (count_kind g (function Graph.Return_site _ -> true | _ -> false)));
    Alcotest.test_case "every reachable node reaches exit" `Quick (fun () ->
        let g =
          cfg_of
            {|func main() { var i = 0; while (i < 3) { if (i == 1) { return; } i = i + 1; }
               MPI_Barrier(); }|}
        in
        let reach = Traversal.reachable g in
        Graph.iter_nodes g (fun n ->
            if reach.(n.Graph.id) then
              Alcotest.(check bool)
                (Printf.sprintf "node %d reaches exit" n.Graph.id)
                true
                (Traversal.path_exists g n.Graph.id Graph.exit_id)));
  ]

(* A hand-built diamond with a loop, for dominance checks:
     0 -> 2 -> 3 -> 4 -> 1 (exit)
          2 -> 4
          4 -> 2 (back edge via cond? simplified)        *)
let diamond_tests =
  [
    Alcotest.test_case "dominators on an if-diamond" `Quick (fun () ->
        let g =
          cfg_of
            "func main() { if (rank() == 0) { compute(1); } else { compute(2); } print(0); }"
        in
        let dom = Dominance.compute g Dominance.Forward in
        let cond =
          List.hd (Graph.filter_nodes g (function Graph.Cond _ -> true | _ -> false))
        in
        (* The cond dominates both branches and the join. *)
        Graph.iter_nodes g (fun n ->
            if n.Graph.id <> Graph.entry_id && Dominance.is_reachable dom n.Graph.id
            then
              if n.Graph.id <> cond && Traversal.path_exists g cond n.Graph.id
              then
                Alcotest.(check bool)
                  (Printf.sprintf "cond dominates %d" n.Graph.id)
                  true
                  (Dominance.dominates dom cond n.Graph.id)));
    Alcotest.test_case "post-dominance frontier of a branch node" `Quick
      (fun () ->
        let g =
          cfg_of
            "func main() { if (rank() == 0) { MPI_Barrier(); } compute(1); }"
        in
        let coll = List.hd (Graph.collective_nodes g) in
        let pdf = pdf_plus g [ coll ] in
        let conds = Graph.filter_nodes g (function Graph.Cond _ -> true | _ -> false) in
        Alcotest.(check bool) "cond in PDF+" true
          (List.exists (fun c -> List.mem c pdf) conds));
    Alcotest.test_case "unconditional collective has empty PDF+" `Quick
      (fun () ->
        let g = cfg_of "func main() { MPI_Barrier(); compute(1); }" in
        let coll = List.hd (Graph.collective_nodes g) in
        Alcotest.(check (list int)) "empty" [] (pdf_plus g [ coll ]));
    Alcotest.test_case "collective in loop: loop cond in PDF+" `Quick (fun () ->
        let g =
          cfg_of "func main() { var i = 0; while (i < 3) { MPI_Barrier(); i = i + 1; } }"
        in
        let coll = List.hd (Graph.collective_nodes g) in
        let pdf = pdf_plus g [ coll ] in
        Alcotest.(check bool) "nonempty" true (pdf <> []));
    Alcotest.test_case "idom of exit is the join of all returns" `Quick
      (fun () ->
        let g =
          cfg_of
            "func main() { if (rank() == 0) { return; } else { return; } }"
        in
        let pdom = Dominance.compute g Dominance.Backward in
        Alcotest.(check bool) "entry reachable in reverse" true
          (Dominance.is_reachable pdom Graph.entry_id));
  ]

let loop_tests =
  [
    Alcotest.test_case "while loop detected" `Quick (fun () ->
        let g = cfg_of "func main() { var i = 0; while (i < 3) { i = i + 1; } }" in
        let loops = Loops.detect g in
        Alcotest.(check int) "one loop" 1 (List.length loops));
    Alcotest.test_case "nested loops detected" `Quick (fun () ->
        let g =
          cfg_of
            {|func main() { for i = 0 to 3 { for j = 0 to 3 { compute(i + j); } } }|}
        in
        let loops = Loops.detect g in
        Alcotest.(check int) "two loops" 2 (List.length loops);
        (* inner body is contained in outer body *)
        match List.sort (fun a b -> compare (List.length a.Loops.body) (List.length b.Loops.body)) loops with
        | [ inner; outer ] ->
            Alcotest.(check bool) "nesting" true
              (List.for_all (fun n -> List.mem n outer.Loops.body) inner.Loops.body)
        | _ -> Alcotest.fail "expected two loops");
    Alcotest.test_case "straight-line code has no loops" `Quick (fun () ->
        let g = cfg_of "func main() { compute(1); MPI_Barrier(); }" in
        Alcotest.(check int) "none" 0 (List.length (Loops.detect g)));
  ]

module SS = Dataflow.StringSet

let dataflow_tests =
  [
    Alcotest.test_case "liveness: variable live across a use" `Quick (fun () ->
        let g = cfg_of "func main() { var a = 1; MPI_Barrier(); print(a); }" in
        let live_in, _ = Dataflow.liveness g in
        let coll = List.hd (Graph.collective_nodes g) in
        Alcotest.(check bool) "a live at collective" true
          (SS.mem "a" live_in.(coll)));
    Alcotest.test_case "liveness: dead after last use" `Quick (fun () ->
        let g = cfg_of "func main() { var a = 1; print(a); MPI_Barrier(); }" in
        let live_in, _ = Dataflow.liveness g in
        let coll = List.hd (Graph.collective_nodes g) in
        Alcotest.(check bool) "a dead at collective" false
          (SS.mem "a" live_in.(coll)));
    Alcotest.test_case "reaching definitions across a branch" `Quick (fun () ->
        let g =
          cfg_of
            {|func main() { var a = 1; if (rank() == 0) { a = 2; } print(a); MPI_Barrier(); }|}
        in
        let reach_in, _ = Dataflow.reaching_definitions g in
        let coll = List.hd (Graph.collective_nodes g) in
        let defs_of_a =
          Dataflow.DefSet.filter (fun (x, _) -> x = "a") reach_in.(coll)
        in
        Alcotest.(check int) "two defs of a reach the end" 2
          (Dataflow.DefSet.cardinal defs_of_a));
    Alcotest.test_case "constant propagation through arithmetic" `Quick
      (fun () ->
        let g =
          cfg_of
            "func main() { var a = 2; var b = a * 3; MPI_Barrier(); print(b); }"
        in
        let _, out = Dataflow.constant_propagation g in
        let coll = List.hd (Graph.collective_nodes g) in
        (match Dataflow.ConstMap.find_opt "b" out.(coll) with
        | Some (Dataflow.Const 6) -> ()
        | _ -> Alcotest.fail "b should be constant 6"));
    Alcotest.test_case "constant propagation: join of different values" `Quick
      (fun () ->
        let g =
          cfg_of
            {|func main() { var a = 1; if (rank() == 0) { a = 2; } MPI_Barrier(); print(a); }|}
        in
        let _, out = Dataflow.constant_propagation g in
        let coll = List.hd (Graph.collective_nodes g) in
        (match Dataflow.ConstMap.find_opt "a" out.(coll) with
        | Some Dataflow.NonConst -> ()
        | _ -> Alcotest.fail "a should be non-constant after the join"));
    Alcotest.test_case "rank taint: direct and transitive" `Quick (fun () ->
        let g =
          cfg_of
            {|func main() { var r = rank(); var t = r * 2; var c = 5;
               if (t > 0) { MPI_Barrier(); } if (c > 0) { MPI_Barrier(); } }|}
        in
        let dep = Actx.rank_dependent (Actx.create ~params:[] g) in
        let conds = Graph.filter_nodes g (function Graph.Cond _ -> true | _ -> false) in
        (match conds with
        | [ c1; c2 ] ->
            Alcotest.(check bool) "t > 0 is rank dependent" true (dep c1);
            Alcotest.(check bool) "c > 0 is not" false (dep c2)
        | _ -> Alcotest.fail "expected two conds"));
    Alcotest.test_case "rank taint: allreduce launders, scan taints" `Quick
      (fun () ->
        let g =
          cfg_of
            {|func main() { var r = rank(); var a = 0; a = MPI_Allreduce(r, sum);
               var s = 0; s = MPI_Scan(r, sum);
               if (a > 0) { MPI_Barrier(); } if (s > 0) { MPI_Barrier(); } }|}
        in
        let dep = Actx.rank_dependent (Actx.create ~params:[] g) in
        let conds = Graph.filter_nodes g (function Graph.Cond _ -> true | _ -> false) in
        (match conds with
        | [ c1; c2 ] ->
            Alcotest.(check bool) "allreduce result is symmetric" false (dep c1);
            Alcotest.(check bool) "scan result is rank dependent" true (dep c2)
        | _ -> Alcotest.fail "expected two conds"));
    Alcotest.test_case "rank taint: parameters are conservatively tainted"
      `Quick (fun () ->
        let p = parse "func f(n) { if (n > 0) { MPI_Barrier(); } } func main() { f(3); }" in
        let f = List.hd (List.filter (fun (fn : Minilang.Ast.func) -> fn.Minilang.Ast.fname = "f") (p.Minilang.Ast.funcs)) in
        let g = Build.of_func f in
        let dep = Actx.rank_dependent (Actx.create ~params:[ "n" ] g) in
        let conds = Graph.filter_nodes g (function Graph.Cond _ -> true | _ -> false) in
        Alcotest.(check bool) "param-dependent cond flagged" true
          (dep (List.hd conds)));
    Alcotest.test_case "taint is killed by constant reassignment" `Quick
      (fun () ->
        let g =
          cfg_of
            {|func main() { var r = rank(); r = 7; if (r > 0) { MPI_Barrier(); } }|}
        in
        let dep = Actx.rank_dependent (Actx.create ~params:[] g) in
        let conds = Graph.filter_nodes g (function Graph.Cond _ -> true | _ -> false) in
        Alcotest.(check bool) "untainted after kill" false (dep (List.hd conds)));
  ]

let dataflow2_tests =
  [
    Alcotest.test_case "available expressions flow across straight lines"
      `Quick (fun () ->
        let g =
          cfg_of
            "func main() { var a = 1; var b = 2; var c = a + b; MPI_Barrier(); var d = a + b; print(c + d); }"
        in
        let avail_in, _ = Dataflow.available_expressions g in
        let coll = List.hd (Graph.collective_nodes g) in
        let has_sum =
          Dataflow.ExprSet.exists
            (fun e ->
              match e with
              | Minilang.Ast.Binop (Minilang.Ast.Add, Minilang.Ast.Var "a", Minilang.Ast.Var "b") ->
                  true
              | _ -> false)
            avail_in.(coll)
        in
        Alcotest.(check bool) "a+b available at the barrier" true has_sum);
    Alcotest.test_case "redefinition kills available expressions" `Quick
      (fun () ->
        let g =
          cfg_of
            "func main() { var a = 1; var b = 2; var c = a + b; a = 9; MPI_Barrier(); print(c); }"
        in
        let avail_in, _ = Dataflow.available_expressions g in
        let coll = List.hd (Graph.collective_nodes g) in
        let has_sum =
          Dataflow.ExprSet.exists
            (fun e ->
              match e with
              | Minilang.Ast.Binop (Minilang.Ast.Add, Minilang.Ast.Var "a", Minilang.Ast.Var "b") ->
                  true
              | _ -> false)
            avail_in.(coll)
        in
        Alcotest.(check bool) "killed by a = 9" false has_sum);
    Alcotest.test_case "available expressions: must-join at a branch" `Quick
      (fun () ->
        (* The expression is computed in only one branch: not available
           after the join. *)
        let g =
          cfg_of
            {|func main() { var a = 1; var b = 2; var c = 0;
               if (rank() == 0) { c = a + b; } MPI_Barrier(); print(c); }|}
        in
        let avail_in, _ = Dataflow.available_expressions g in
        let coll = List.hd (Graph.collective_nodes g) in
        let has_sum =
          Dataflow.ExprSet.exists
            (fun e ->
              match e with
              | Minilang.Ast.Binop (Minilang.Ast.Add, Minilang.Ast.Var "a", Minilang.Ast.Var "b") ->
                  true
              | _ -> false)
            avail_in.(coll)
        in
        Alcotest.(check bool) "not available (one branch only)" false has_sum);
    Alcotest.test_case "available expressions: send and receive arguments"
      `Quick (fun () ->
        (* Blocking point-to-point calls compute their arguments like
           their split-phase forms; a receive then kills what depends on
           its target. *)
        let g =
          cfg_of
            {|func main() { var a = 1; var b = 2; var x = 0;
               MPI_Send(a + b, 1, 0); x = MPI_Recv(a * b, x + 1);
               MPI_Barrier(); print(x); }|}
        in
        let avail_in, _ = Dataflow.available_expressions g in
        let coll = List.hd (Graph.collective_nodes g) in
        let open Minilang.Ast in
        let avail e = Dataflow.ExprSet.mem e avail_in.(coll) in
        Alcotest.(check bool) "a+b" true (avail (Binop (Add, Var "a", Var "b")));
        Alcotest.(check bool) "a*b" true (avail (Binop (Mul, Var "a", Var "b")));
        Alcotest.(check bool) "x+1 killed" false
          (avail (Binop (Add, Var "x", Int 1))));
    Alcotest.test_case "copy propagation tracks x := y" `Quick (fun () ->
        let g =
          cfg_of
            "func main() { var y = 5; var x = y; MPI_Barrier(); print(x); }"
        in
        let in_maps, _ = Dataflow.copy_propagation g in
        let coll = List.hd (Graph.collective_nodes g) in
        Alcotest.(check (option string)) "x copies y" (Some "y")
          (Dataflow.CopyMap.find_opt "x" in_maps.(coll)));
    Alcotest.test_case "copy propagation kills on source redefinition" `Quick
      (fun () ->
        let g =
          cfg_of
            "func main() { var y = 5; var x = y; y = 6; MPI_Barrier(); print(x); }"
        in
        let in_maps, _ = Dataflow.copy_propagation g in
        let coll = List.hd (Graph.collective_nodes g) in
        Alcotest.(check (option string)) "killed" None
          (Dataflow.CopyMap.find_opt "x" in_maps.(coll)));
    Alcotest.test_case "copy propagation survives a loop without kills" `Quick
      (fun () ->
        let g =
          cfg_of
            {|func main() { var y = 5; var x = y; var i = 0;
               while (i < 3) { compute(x); i = i + 1; } MPI_Barrier(); }|}
        in
        let in_maps, _ = Dataflow.copy_propagation g in
        let coll = List.hd (Graph.collective_nodes g) in
        Alcotest.(check (option string)) "still a copy after the loop"
          (Some "y")
          (Dataflow.CopyMap.find_opt "x" in_maps.(coll)));
    Alcotest.test_case "copy propagation: must-join disagreement kills" `Quick
      (fun () ->
        let g =
          cfg_of
            {|func main() { var y = 5; var z = 6; var x = 0;
               if (rank() == 0) { x = y; } else { x = z; } MPI_Barrier(); }|}
        in
        let in_maps, _ = Dataflow.copy_propagation g in
        let coll = List.hd (Graph.collective_nodes g) in
        Alcotest.(check (option string)) "ambiguous copy dropped" None
          (Dataflow.CopyMap.find_opt "x" in_maps.(coll)));
  ]

let dot_tests =
  [
    Alcotest.test_case "dot output mentions every node" `Quick (fun () ->
        let g = cfg_of "func main() { if (rank() == 0) { MPI_Barrier(); } }" in
        let dot = Dot.to_dot g in
        Graph.iter_nodes g (fun n ->
            let needle = Printf.sprintf "n%d [" n.Graph.id in
            let contains =
              let rec go i =
                i + String.length needle <= String.length dot
                && (String.sub dot i (String.length needle) = needle || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) (Printf.sprintf "node %d present" n.Graph.id) true contains));
    Alcotest.test_case "dot escapes quotes" `Quick (fun () ->
        Alcotest.(check string) "escaped" "a\\\"b" (Dot.escape "a\"b"));
  ]

let invariant_tests =
  [
    Alcotest.test_case "all sample constructs build well-formed graphs" `Quick
      (fun () ->
        List.iter
          (fun src ->
            let g = cfg_of src in
            match Invariants.check g with
            | [] -> ()
            | vs ->
                Alcotest.failf "violations for %s: %s" src
                  (String.concat "; " vs))
          [
            "func main() { }";
            "func main() { return; }";
            "func main() { if (rank() == 0) { } else { } }";
            "func main() { if (rank() == 0) { return; } else { return; } }";
            {|func main() { var i = 0; while (i < 3) { i = i + 1; } }|};
            {|func main() { pragma omp parallel { pragma omp sections {
               section { compute(1); } section { compute(2); } } } }|};
            {|func main() { pragma omp parallel { pragma omp for i = 0 to 4 {
               if (i == 2) { compute(1); } } pragma omp single { MPI_Barrier(); } } }|};
          ]);
    Alcotest.test_case "benchmark graphs are well-formed" `Quick (fun () ->
        List.iter
          (fun (e : Benchsuite.Catalog.entry) ->
            List.iter
              (fun g ->
                Alcotest.(check (list string))
                  (e.Benchsuite.Catalog.name ^ "/" ^ g.Graph.fname)
                  [] (Invariants.check g))
              (Build.of_program (e.Benchsuite.Catalog.generate_small ())))
          Benchsuite.Catalog.all);
    Alcotest.test_case "implicit barriers sit exactly after promised ends"
      `Quick (fun () ->
        let g =
          cfg_of
            {|func main() { pragma omp parallel {
               pragma omp single nowait { compute(1); }
               pragma omp single { compute(2); }
               pragma omp master { compute(3); }
               pragma omp critical { compute(4); }
               pragma omp for i = 0 to 4 nowait { compute(i); }
               pragma omp for i = 0 to 4 { compute(i); } } }|}
        in
        Alcotest.(check (list string)) "well-formed" [] (Invariants.check g);
        (* Implicit barriers: parallel + single + for = 3 (the
           nowait/master/critical regions contribute none), each right
           after the end of the region that promises it. *)
        let implicit =
          Graph.filter_nodes g (function
            | Graph.Barrier_node { implicit = true; _ } -> true
            | _ -> false)
        in
        Alcotest.(check int) "three implicit barriers" 3 (List.length implicit);
        let pred_kinds =
          List.sort compare
            (List.map
               (fun id ->
                 match Graph.preds g id with
                 | [ p ] -> (
                     match Graph.kind g p with
                     | Graph.Omp_end { kind; _ } -> Graph.region_kind_name kind
                     | _ -> "<not an end>")
                 | _ -> "<multiple preds>")
               implicit)
        in
        Alcotest.(check (list string)) "each after its region end"
          (List.sort compare [ "parallel"; "single"; "for" ])
          pred_kinds);
    Alcotest.test_case "misplaced implicit barrier is reported" `Quick
      (fun () ->
        (* Hand-build a graph where an implicit barrier follows a master
           end: entry -> begin(master) -> end -> barrier(implicit) -> exit. *)
        let open Minilang in
        let contains_sub hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        let g = Graph.builder "bad" in
        let entry = Graph.add_node g Graph.Entry in
        let exit = Graph.add_node g Graph.Exit in
        let stmt = Ast.mk (Ast.Omp_master []) in
        let b = Graph.add_node g (Graph.Omp_begin { kind = Graph.Rmaster; stmt }) in
        let e =
          Graph.add_node g
            (Graph.Omp_end { kind = Graph.Rmaster; region = b; stmt })
        in
        let bar =
          Graph.add_node g
            (Graph.Barrier_node { implicit = true; loc = Loc.none })
        in
        Graph.add_edge g entry b;
        Graph.add_edge g b e;
        Graph.add_edge g e bar;
        Graph.add_edge g bar exit;
        let vs = Invariants.check (Graph.finish g) in
        Alcotest.(check bool) "violation reported" true
          (List.exists
             (fun v ->
               contains_sub v "implicit barrier"
               || contains_sub v "followed by an implicit barrier")
             vs));
  ]

let suite =
  [
    ("cfg.build", build_tests);
    ("cfg.invariants", invariant_tests);
    ("cfg.dominance", diamond_tests);
    ("cfg.loops", loop_tests);
    ("cfg.dataflow", dataflow_tests);
    ("cfg.dataflow2", dataflow2_tests);
    ("cfg.dot", dot_tests);
  ]

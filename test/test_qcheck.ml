(** Property-based end-to-end tests.

    A generator produces random {e correct-by-construction} hybrid
    programs: control flow is rank-uniform (no [rank()]/[omp_tid()] in
    conditions), collectives appear only in monothreaded, ordered contexts
    (top level or non-[nowait] [single] regions), and shared-variable
    updates inside parallel regions go through [critical] with commutative
    increments — so every run is deterministic and must finish.

    Properties:
    - generated programs pass the validator;
    - pretty-print → parse is the identity (structural equality);
    - parallelism words have no inconsistencies;
    - the full pipeline (analyse → selective instrumentation → simulate)
      finishes, with per-rank print traces identical to the uninstrumented
      run;
    - injecting a rank-divergence bug never lets the instrumented run
      deadlock or hit the step limit: it either finishes (bug in dead code
      or benign) or aborts cleanly. *)

open Minilang
module Gen = QCheck.Gen

let shared_vars = [ "x0"; "x1"; "x2"; "x3" ]

(* Uniform integer expressions over the shared variables. *)
let gen_expr : Ast.expr Gen.t =
  let open Gen in
  sized_size (int_bound 2) (fun n ->
      fix
        (fun self n ->
          if n = 0 then
            oneof
              [
                map (fun i -> Ast.Int i) (int_range 0 9);
                map (fun v -> Ast.Var v) (oneofl shared_vars);
                return Ast.Size;
              ]
          else
            oneof
              [
                map (fun i -> Ast.Int i) (int_range 0 9);
                map2
                  (fun op (a, b) -> Ast.Binop (op, a, b))
                  (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
                  (pair (self (n - 1)) (self (n - 1)));
              ])
        n)

let gen_cond : Ast.expr Gen.t =
  let open Gen in
  map2
    (fun op (a, b) -> Ast.Binop (op, a, b))
    (oneofl [ Ast.Lt; Ast.Le; Ast.Eq; Ast.Ne ])
    (pair gen_expr gen_expr)

let gen_collective : Ast.stmt Gen.t =
  let open Gen in
  let mk = Ast.mk ~loc:Loc.none in
  oneof
    [
      return (mk (Ast.Coll (None, Ast.Barrier)));
      map
        (fun e -> mk (Ast.Coll (Some "x0", Ast.Allreduce { op = Ast.Rsum; value = e })))
        gen_expr;
      map
        (fun e -> mk (Ast.Coll (Some "x1", Ast.Bcast { root = Ast.Int 0; value = e })))
        gen_expr;
      map
        (fun e -> mk (Ast.Coll (Some "x2", Ast.Allgather { value = e })))
        gen_expr;
    ]

(* Statements allowed inside a parallel region body: deterministic under
   any schedule. *)
let gen_par_item : Ast.stmt Gen.t =
  let open Gen in
  let mk = Ast.mk ~loc:Loc.none in
  oneof
    [
      map (fun e -> mk (Ast.Compute e)) gen_expr;
      return (mk Ast.Omp_barrier);
      map
        (fun (v, c) ->
          mk
            (Ast.Omp_critical
               ( None,
                 [ mk (Ast.Assign (v, Ast.Binop (Ast.Add, Ast.Var v, Ast.Int c))) ] )))
        (pair (oneofl shared_vars) (int_range 1 5));
      map
        (fun n ->
          mk
            (Ast.Omp_for
               {
                 var = "it";
                 reduction = None;
                 lo = Ast.Int 0;
                 hi = Ast.Int n;
                 nowait = false;
                 body = [ mk (Ast.Compute (Ast.Int 1)) ];
               }))
        (int_range 1 6);
      (* Worksharing reduction into a shared variable: deterministic for
         the commutative-associative integer operators. *)
      map2
        (fun (x, op) n ->
          mk
            (Ast.Omp_for
               {
                 var = "it";
                 reduction = Some (op, x);
                 lo = Ast.Int 0;
                 hi = Ast.Int n;
                 nowait = false;
                 body =
                   [
                     mk
                       (Ast.Assign
                          (x, Ast.Binop (Ast.Add, Ast.Var x, Ast.Var "it")));
                   ];
               }))
        (pair (oneofl shared_vars) (oneofl [ Ast.Rsum; Ast.Rmax; Ast.Rmin ]))
        (int_range 1 6);
      map
        (fun coll -> mk (Ast.Omp_single { nowait = false; body = [ coll ] }))
        gen_collective;
      map
        (fun e -> mk (Ast.Omp_master [ mk (Ast.Compute e) ]))
        gen_expr;
    ]

(* Uniform ring exchange: deterministic (each rank's received value is a
   pure function of its neighbour's uniform expression) and deadlock-free
   (sends are eager). *)
let gen_ring_exchange : Ast.stmt list Gen.t =
  let open Gen in
  let mk = Ast.mk ~loc:Loc.none in
  map2
    (fun e tag ->
      [
        mk
          (Ast.Send
             {
               value = e;
               dest =
                 Ast.Binop (Ast.Mod, Ast.Binop (Ast.Add, Ast.Rank, Ast.Int 1), Ast.Size);
               tag = Ast.Int tag;
             });
        mk
          (Ast.Recv
             {
               target = "x3";
               src =
                 Ast.Binop
                   ( Ast.Mod,
                     Ast.Binop (Ast.Add, Ast.Rank, Ast.Binop (Ast.Sub, Ast.Size, Ast.Int 1)),
                     Ast.Size );
               tag = Ast.Int tag;
             });
      ])
    gen_expr (int_range 0 3)

let rec gen_stmt fuel : Ast.stmt Gen.t =
  let open Gen in
  let mk = Ast.mk ~loc:Loc.none in
  let leaf =
    [
      map (fun e -> mk (Ast.Compute e)) gen_expr;
      map2 (fun v e -> mk (Ast.Assign (v, e))) (oneofl shared_vars) gen_expr;
      map (fun e -> mk (Ast.Print e)) gen_expr;
      gen_collective;
    ]
  in
  if fuel = 0 then oneof leaf
  else
    oneof
      (leaf
      @ [
          map2
            (fun c (bt, bf) -> mk (Ast.If (c, bt, bf)))
            gen_cond
            (pair (gen_block (fuel - 1)) (gen_block (fuel - 1)));
          map2
            (fun n body -> mk (Ast.For ("i", Ast.Int 0, Ast.Int n, body)))
            (int_range 1 3)
            (gen_block (fuel - 1));
          map2
            (fun n body ->
              mk (Ast.Omp_parallel { num_threads = Some (Ast.Int n); body }))
            (int_range 1 3)
            (list_size (int_range 1 4) gen_par_item);
          map
            (fun body -> mk (Ast.Omp_single { nowait = false; body }))
            (gen_block_nocoll (fuel - 1));
        ])

and gen_block fuel : Ast.block Gen.t =
  let open Gen in
  map2
    (fun stmts ring ->
      match ring with Some r -> stmts @ r | None -> stmts)
    (list_size (int_range 0 3) (gen_stmt fuel))
    (oneof [ return None; map (fun r -> Some r) gen_ring_exchange ])

(* Blocks without collectives or OpenMP, for orphaned single bodies. *)
and gen_block_nocoll _fuel : Ast.block Gen.t =
  let open Gen in
  let mk = Ast.mk ~loc:Loc.none in
  list_size (int_range 0 3)
    (oneof
       [
         map (fun e -> mk (Ast.Compute e)) gen_expr;
         map2 (fun v e -> mk (Ast.Assign (v, e))) (oneofl shared_vars) gen_expr;
       ])

let gen_program : Ast.program Gen.t =
  let open Gen in
  map
    (fun body ->
      let decls =
        List.map
          (fun v -> Ast.mk ~loc:Loc.none (Ast.Decl (v, Ast.Int 0)))
          shared_vars
      in
      Builder.number_lines
        { Ast.funcs = [ { Ast.fname = "main"; params = []; body = decls @ body; floc = Loc.none } ] })
    (gen_block 2)

let arb_program =
  QCheck.make ~print:Pretty.program_to_string gen_program

let config seed =
  {
    Interp.Sim.nranks = 2;
    default_nthreads = 2;
    schedule = `Random seed;
    max_steps = 2_000_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

let per_rank result rank =
  List.filter_map
    (fun (r, t, v) -> if r = rank then Some (t, v) else None)
    (Interp.Sim.trace result)

(* Racy programs for the exploration-equivalence property: unlike
   [gen_program] these are deliberately schedule-dependent — nowait
   singles and master regions racing into collectives, rank-divergent
   collectives that deadlock — so the explorer sees several outcome
   classes, pruning opportunities and aborted/stuck prefixes. *)
let gen_racy_item : Ast.stmt Gen.t =
  let open Gen in
  let mk = Ast.mk ~loc:Loc.none in
  oneof
    [
      map (fun e -> mk (Ast.Compute e)) gen_expr;
      map
        (fun coll -> mk (Ast.Omp_single { nowait = true; body = [ coll ] }))
        gen_collective;
      map
        (fun coll -> mk (Ast.Omp_single { nowait = false; body = [ coll ] }))
        gen_collective;
      map (fun coll -> mk (Ast.Omp_master [ coll ])) gen_collective;
      return (mk Ast.Omp_barrier);
      map
        (fun (v, c) ->
          mk
            (Ast.Omp_critical
               ( None,
                 [ mk (Ast.Assign (v, Ast.Binop (Ast.Add, Ast.Var v, Ast.Int c))) ] )))
        (pair (oneofl shared_vars) (int_range 1 5));
    ]

let gen_racy_program : Ast.program Gen.t =
  let open Gen in
  let mk = Ast.mk ~loc:Loc.none in
  map2
    (fun items tail ->
      let decls =
        List.map
          (fun v -> mk (Ast.Decl (v, Ast.Int 0)))
          shared_vars
      in
      let par =
        mk (Ast.Omp_parallel { num_threads = Some (Ast.Int 2); body = items })
      in
      let body = decls @ [ par ] @ tail in
      Builder.number_lines
        {
          Ast.funcs =
            [ { Ast.fname = "main"; params = []; body; floc = Loc.none } ];
        })
    (list_size (int_range 1 3) gen_racy_item)
    (oneof
       [
         return [];
         map (fun coll -> [ coll ]) gen_collective;
         (* Rank-divergent collective: deadlocks under every schedule. *)
         return
           [ mk (Ast.If (Ast.Binop (Ast.Eq, Ast.Rank, Ast.Int 0),
                         [ mk (Ast.Coll (None, Ast.Barrier)) ], [])) ];
       ])

let arb_racy_program =
  QCheck.make ~print:Pretty.program_to_string gen_racy_program

(* Random byte soup must only ever raise the documented exceptions. *)
let gen_garbage =
  QCheck.make
    ~print:(fun s -> String.escaped s)
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 80))

let properties =
  let open QCheck in
  [
    Test.make ~name:"parser never crashes on garbage" ~count:300 gen_garbage
      (fun s ->
        match Parser.parse_string ~file:"fuzz" s with
        | _ -> true
        | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> true);
    Test.make ~name:"generated programs validate" ~count:60 arb_program
      (fun p -> Validate.is_valid (Validate.check_program p));
    Test.make ~name:"pretty → parse round trip" ~count:60 arb_program (fun p ->
        let printed = Pretty.program_to_string p in
        Ast.equal_program p (Parser.parse_string ~file:"rt" printed));
    Test.make ~name:"CFGs of generated programs are well-formed (also after instrumentation)"
      ~count:60 arb_program (fun p ->
        let ok prog =
          List.for_all
            (fun g -> Cfg.Invariants.check g = [])
            (Cfg.Build.of_program prog)
        in
        let report = Parcoach.Driver.analyze p in
        ok p
        && ok (Parcoach.Instrument.instrument report Parcoach.Instrument.Selective)
        && ok (Parcoach.Instrument.instrument report Parcoach.Instrument.Exhaustive));
    Test.make ~name:"parallelism words are consistent" ~count:60 arb_program
      (fun p ->
        List.for_all
          (fun g ->
            (Parcoach.Pword.compute (Cfg.Actx.create ~params:[] g))
              .Parcoach.Pword.inconsistencies = [])
          (Cfg.Build.of_program p));
    Test.make ~name:"pipeline finishes with identical per-rank traces"
      ~count:40 arb_program (fun p ->
        let report = Parcoach.Driver.analyze p in
        let instrumented =
          Parcoach.Instrument.instrument report Parcoach.Instrument.Selective
        in
        let plain = Interp.Sim.run ~config:(config 11) p in
        let checked = Interp.Sim.run ~config:(config 11) instrumented in
        plain.Interp.Sim.outcome = Interp.Sim.Finished
        && checked.Interp.Sim.outcome = Interp.Sim.Finished
        && List.for_all
             (fun rank -> per_rank plain rank = per_rank checked rank)
             [ 0; 1 ]);
    Test.make ~name:"instrumented injected bugs never deadlock (P2P-free) nor hang"
      ~count:40
      (pair arb_program (int_bound 1000))
      (fun (p, salt) ->
        let n = Benchsuite.Injector.collective_count p in
        QCheck.assume (n > 0);
        let has_p2p =
          List.exists
            (fun (f : Ast.func) ->
              Ast.fold_stmts
                (fun acc s ->
                  acc
                  ||
                  match s.Ast.sdesc with
                  | Ast.Send _ | Ast.Recv _ -> true
                  | _ -> false)
                false f.Ast.body)
            p.Ast.funcs
        in
        let buggy =
          Benchsuite.Injector.inject Benchsuite.Injector.Rank_divergence
            ~index:(salt mod n) p
        in
        let report = Parcoach.Driver.analyze buggy in
        let instrumented =
          Parcoach.Instrument.instrument report Parcoach.Instrument.Selective
        in
        match (Interp.Sim.run ~config:(config 13) instrumented).Interp.Sim.outcome with
        | Interp.Sim.Finished | Interp.Sim.Aborted _ | Interp.Sim.Fault _ -> true
        | Interp.Sim.Deadlock _ ->
            (* The CC agreement is itself a collective: a rank blocked in a
               point-to-point receive whose matching send sits behind
               another rank's CC forms a CC↔Recv cycle the checks cannot
               break — the same limitation the real PARCOACH has.
               Divergence in P2P-free programs must never deadlock. *)
            has_p2p
        | Interp.Sim.Step_limit -> false);
    (* The tentpole contract of the pruned parallel explorer: on racy
       programs it reports exactly the class set and per-class counts of
       the unpruned sequential reference, and is deterministic in the
       number of domains. *)
    Test.make ~name:"pruned exploration = reference (classes, counts, jobs)"
      ~count:25 arb_racy_program (fun p ->
        let config =
          {
            Interp.Sim.nranks = 2;
            default_nthreads = 2;
            schedule = `Round_robin;
            max_steps = 50_000;
            entry = "main";
            record_trace = false;
            thread_level = Mpisim.Thread_level.Multiple;
          }
        in
        let branch_depth = 4 and budget = 50_000 in
        let reference =
          Interp.Explore.outcomes_reference ~branch_depth ~budget ~config p
        in
        let pruned jobs =
          Interp.Explore.outcomes ~branch_depth ~budget ~jobs ~config p
        in
        let p1 = pruned 1 in
        let counts (s : Interp.Explore.summary) =
          ( s.Interp.Explore.finished,
            s.Interp.Explore.aborted,
            s.Interp.Explore.faulted,
            s.Interp.Explore.deadlocked,
            s.Interp.Explore.step_limited )
        in
        let classes (s : Interp.Explore.summary) =
          List.sort compare (List.map fst s.Interp.Explore.witnesses)
        in
        counts reference = counts p1
        && classes reference = classes p1
        && String.equal
             (Interp.Explore.summary_to_string p1)
             (Interp.Explore.summary_to_string (pruned 4)));
    (* The DPOR explorer picks one representative per Mazurkiewicz trace,
       so per-class counts legitimately differ from the reference — but
       its contract is class coverage: with a recording window spanning
       the whole run (racing-pair backtracks reach below [branch_depth],
       so we size it to the round-robin run length plus slack), it must
       reach every outcome class the reference reaches within its own
       divergence window (and possibly more).  Every witness must replay
       to its class, the summary accounting must balance, and the result
       must be deterministic in the number of domains. *)
    Test.make ~name:"DPOR covers the reference classes (witnesses, jobs)"
      ~count:25 arb_racy_program (fun p ->
        let config =
          {
            Interp.Sim.nranks = 2;
            default_nthreads = 2;
            schedule = `Round_robin;
            max_steps = 50_000;
            entry = "main";
            record_trace = false;
            thread_level = Mpisim.Thread_level.Multiple;
          }
        in
        let budget = 50_000 in
        let reference =
          Interp.Explore.outcomes_reference ~branch_depth:4 ~budget ~config p
        in
        let run_length =
          (Interp.Sim.run ~config p).Interp.Sim.stats.Interp.Sim.steps
        in
        let dpor jobs =
          Interp.Explore.outcomes_dpor ~branch_depth:(run_length + 16) ~budget
            ~jobs ~config p
        in
        let d1 = dpor 1 in
        let classes (s : Interp.Explore.summary) =
          List.sort compare (List.map fst s.Interp.Explore.witnesses)
        in
        List.for_all
          (fun c -> List.mem c (classes d1))
          (classes reference)
        && d1.Interp.Explore.runs
           = d1.Interp.Explore.replays + d1.Interp.Explore.pruned
        && List.for_all
             (fun (name, script) ->
               let r = Interp.Explore.replay ~config p script in
               String.equal name
                 (Interp.Explore.class_name r.Interp.Sim.outcome))
             d1.Interp.Explore.witnesses
        && String.equal
             (Interp.Explore.summary_to_string d1)
             (Interp.Explore.summary_to_string (dpor 4)));
  ]

let suite =
  [ ("qcheck.endtoend", List.map QCheck_alcotest.to_alcotest properties) ]

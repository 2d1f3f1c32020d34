(** Tests for the nonblocking request-lifecycle pass ({!Parcoach.Requests})
    and its dynamic oracle (the lifecycle checker of {!Interp.Sim}).

    Mirrors the race-pass suite: the static pass over-approximates, so on
    randomly generated split-phase programs {e every} lifecycle violation
    the simulator observes (leak, double completion, stale buffer read)
    must be covered by a static warning of the matching class — while the
    clean benchsuite must produce zero request warnings. *)

open Parcoach

let parse src = Minilang.Parser.parse_string ~file:"test" src

let request_options =
  { Driver.default_options with Driver.requests = true; taint_filter = true }

let analyze ?(options = request_options) program =
  Driver.analyze ~options program

let request_classes =
  [ "request leak"; "double wait"; "use before completion";
    "completion mismatch" ]

let class_counts report =
  List.filter
    (fun (cls, _) -> List.mem cls request_classes)
    (Driver.warnings_by_class report)

let count_class report cls =
  Option.value ~default:0 (List.assoc_opt cls (class_counts report))

(* ------------------------------------------------------------------ *)
(* Static pass on concrete programs                                    *)
(* ------------------------------------------------------------------ *)

let static_tests =
  [
    Alcotest.test_case "path-dependent leak and divergent completion" `Quick
      (fun () ->
        let program =
          parse
            {|func main() {
               r = MPI_Ibarrier();
               if (rank() == 0) {
                 MPI_Wait(r);
               }
             }|}
        in
        let report = analyze program in
        Alcotest.(check int) "leak" 1 (count_class report "request leak");
        Alcotest.(check int) "completion mismatch" 1
          (count_class report "completion mismatch"));
    Alcotest.test_case "double wait and stale buffer read" `Quick (fun () ->
        let program =
          parse
            {|func main() {
               var x = 0;
               r = MPI_Iallreduce(x, 1, sum);
               print(x);
               MPI_Wait(r);
               MPI_Wait(r);
             }|}
        in
        let report = analyze program in
        Alcotest.(check int) "double wait" 1 (count_class report "double wait");
        Alcotest.(check int) "stale read" 1
          (count_class report "use before completion"));
    Alcotest.test_case "clean split-phase program has no warnings" `Quick
      (fun () ->
        let program =
          parse
            {|func main() {
               var x = 0;
               r = MPI_Iallreduce(x, 1, sum);
               compute(1);
               MPI_Wait(r);
               print(x);
             }|}
        in
        Alcotest.(check int) "no warnings" 0
          (Driver.warning_count (analyze program)));
    Alcotest.test_case "test-based completion keeps the request live" `Quick
      (fun () ->
        (* MPI_Test may not complete: the may-analysis keeps the request
           in flight, so relying on a single test is flagged as a leak. *)
        let program =
          parse
            {|func main() {
               r = MPI_Ibarrier();
               t = MPI_Test(r);
             }|}
        in
        let report = analyze program in
        Alcotest.(check bool) "leak reported" true
          (count_class report "request leak" >= 1));
    Alcotest.test_case "warnings flow through the JSON report" `Quick
      (fun () ->
        let program =
          parse
            {|func main() {
               var x = 0;
               r = MPI_Irecv(x, 1, 0);
               print(x);
               MPI_Wait(r);
               MPI_Wait(r);
               s = MPI_Ibarrier();
               if (rank() == 0) { MPI_Wait(s); }
             }|}
        in
        let report = analyze program in
        let json = Json_report.to_string ~issues:[] report in
        List.iter
          (fun cls ->
            Alcotest.(check bool) (cls ^ " present in JSON") true
              (count_class report cls >= 1);
            let quoted = Printf.sprintf "%S" cls in
            let contains s sub =
              let n = String.length sub in
              let rec go i =
                i + n <= String.length s
                && (String.equal (String.sub s i n) sub || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) (cls ^ " named in JSON") true
              (contains json quoted))
          request_classes);
  ]

(* ------------------------------------------------------------------ *)
(* Clean benchsuite: zero request warnings                             *)
(* ------------------------------------------------------------------ *)

let clean_tests =
  [
    Alcotest.test_case "catalog has zero request warnings" `Quick (fun () ->
        List.iter
          (fun (e : Benchsuite.Catalog.entry) ->
            let report = analyze (e.Benchsuite.Catalog.generate_small ()) in
            Alcotest.(check (list (pair string int)))
              (e.Benchsuite.Catalog.name ^ " request warnings")
              [] (class_counts report))
          Benchsuite.Catalog.all);
  ]

(* ------------------------------------------------------------------ *)
(* Dynamic oracle                                                      *)
(* ------------------------------------------------------------------ *)

let config ?(nranks = 2) seed =
  {
    Interp.Sim.nranks;
    default_nthreads = 2;
    schedule = `Random seed;
    max_steps = 500_000;
    entry = "main";
    record_trace = false;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* Observed lifecycle violations over several seeded schedules, as
   (class, site) keys: the site is the start site for leaks and the
   faulting wait/read site otherwise, matching the loc the static
   warning of that class carries. *)
let dynamic_keys ?(nranks = 2) ?(seeds = 5) program =
  List.sort_uniq compare
    (List.concat_map
       (fun seed ->
         let result = Interp.Sim.run ~config:(config ~nranks seed) program in
         List.map
           (function
             | Interp.Sim.Leaked_request { site; _ } -> ("request leak", site)
             | Interp.Sim.Double_wait { site; _ } -> ("double wait", site)
             | Interp.Sim.Stale_read { site; _ } ->
                 ("use before completion", site))
           result.Interp.Sim.lifecycle)
       (List.init seeds (fun i -> i)))

(* Static coverage of a dynamic key: a warning of the same class whose
   loc (or, for leaks, one of whose start sites) is the observed site. *)
let statically_covered report (cls, site) =
  List.exists
    (fun (w : Warning.t) ->
      String.equal (Warning.class_of w.Warning.kind) cls
      &&
      match w.Warning.kind with
      | Warning.Request_leak { started; _ } ->
          List.exists
            (fun l -> String.equal (Minilang.Loc.to_string l) site)
            started
      | _ -> String.equal (Minilang.Loc.to_string w.Warning.loc) site)
    (Driver.all_warnings report)

let check_dynamic_covered ?nranks program =
  let report = analyze program in
  List.iter
    (fun (cls, site) ->
      Alcotest.(check bool)
        (Printf.sprintf "dynamic %s at %s statically reported" cls site)
        true
        (statically_covered report (cls, site)))
    (dynamic_keys ?nranks program)

let dynamic_tests =
  [
    Alcotest.test_case "leak observed on non-waiting ranks" `Quick (fun () ->
        let program =
          parse
            {|func main() {
               r = MPI_Ibarrier();
               if (rank() == 0) {
                 MPI_Wait(r);
               }
             }|}
        in
        let keys = dynamic_keys ~nranks:3 ~seeds:2 program in
        Alcotest.(check bool) "leak observed" true
          (List.exists (fun (cls, _) -> String.equal cls "request leak") keys);
        check_dynamic_covered program);
    Alcotest.test_case "stale read and double wait observed" `Quick (fun () ->
        let program =
          parse
            {|func main() {
               var x = 0;
               r = MPI_Iallreduce(x, 1, sum);
               print(x);
               MPI_Wait(r);
               MPI_Wait(r);
             }|}
        in
        let keys = dynamic_keys ~seeds:2 program in
        Alcotest.(check bool) "stale read observed" true
          (List.exists
             (fun (cls, _) -> String.equal cls "use before completion")
             keys);
        Alcotest.(check bool) "double wait observed" true
          (List.exists (fun (cls, _) -> String.equal cls "double wait") keys);
        check_dynamic_covered program);
    Alcotest.test_case "buggy examples: violations statically covered"
      `Quick (fun () ->
        List.iter
          (fun name ->
            check_dynamic_covered ~nranks:3
              (Minilang.Parser.parse_file ("../examples/programs/" ^ name)))
          [ "leaky_request.hml"; "ibarrier_divergence.hml" ]);
    Alcotest.test_case "clean split-phase run has no violations" `Quick
      (fun () ->
        let program =
          parse
            {|func main() {
               var x = 0;
               r = MPI_Iallreduce(x, 1, sum);
               compute(1);
               MPI_Wait(r);
               print(x);
               s = MPI_Isend(x, (rank() + 1) % size(), 3);
               y = MPI_Irecv(x, (rank() + size() - 1) % size(), 3);
               MPI_Wait(s);
               MPI_Wait(y);
             }|}
        in
        let result = Interp.Sim.run ~config:(config 7) program in
        Alcotest.(check bool) "finishes" true (Interp.Sim.is_finished result);
        Alcotest.(check int) "no violations" 0
          (List.length result.Interp.Sim.lifecycle));
    Alcotest.test_case "clean catalog runs have no violations" `Quick
      (fun () ->
        List.iter
          (fun (e : Benchsuite.Catalog.entry) ->
            let program = e.Benchsuite.Catalog.generate_small () in
            let result = Interp.Sim.run ~config:(config ~nranks:2 3) program in
            Alcotest.(check int)
              (e.Benchsuite.Catalog.name ^ " lifecycle violations")
              0
              (List.length result.Interp.Sim.lifecycle))
          Benchsuite.Catalog.all);
  ]

(* ------------------------------------------------------------------ *)
(* Wait as a happens-before edge in the race pass                      *)
(* ------------------------------------------------------------------ *)

let hb_tests =
  [
    Alcotest.test_case "wait discharges the completion-write race" `Quick
      (fun () ->
        (* The Iallreduce completion write to [x] is attributed to the
           start site; the read of [x] outside the master region may
           happen in parallel with it by pword.  The requests pass proves
           the request is no longer in flight at the read, so the pair is
           discharged — without it the race pass must flag it. *)
        let program =
          parse
            {|func main() {
               var x = 0;
               pragma omp parallel num_threads(2) {
                 pragma omp master {
                   r = MPI_Iallreduce(x, 1, sum);
                   MPI_Wait(r);
                 }
                 compute(x);
               }
             }|}
        in
        let races_only =
          { Driver.default_options with Driver.races = true }
        in
        let both =
          { Driver.default_options with Driver.races = true; requests = true }
        in
        let race_count options =
          List.length
            (List.filter
               (fun (w : Warning.t) ->
                 match w.Warning.kind with
                 | Warning.Data_race { var; _ } -> String.equal var "x"
                 | _ -> false)
               (Driver.all_warnings (Driver.analyze ~options program)))
        in
        Alcotest.(check bool) "flagged without the requests pass" true
          (race_count races_only >= 1);
        Alcotest.(check int) "discharged with the requests pass" 0
          (race_count both);
        let report = Driver.analyze ~options:both program in
        let fr = List.hd report.Driver.funcs in
        match fr.Driver.races with
        | Some r ->
            Alcotest.(check bool) "wait_filtered counted" true
              (r.Races.wait_filtered >= 1)
        | None -> Alcotest.fail "races result missing");
  ]

(* ------------------------------------------------------------------ *)
(* Differential property: dynamic ⊆ static                             *)
(* ------------------------------------------------------------------ *)

(* Split-phase programs that are deliberately lifecycle-buggy: each
   fragment starts a request and then leaks it, completes it on a
   rank-dependent path only, waits twice, or touches the buffer while in
   flight — plus clean fragments so coverage is not vacuous. *)
let gen_request_program : Minilang.Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let open Minilang in
  let mk = Ast.mk ~loc:Loc.none in
  let fragment k =
    let r = Printf.sprintf "r%d" k in
    let buf = Printf.sprintf "b%d" k in
    let start =
      oneofl
        [
          `Ibarrier;
          `Iallreduce;
          `Irecv;
          `Isend;
        ]
    in
    let istart_of = function
      | `Ibarrier -> Builder.ibarrier r
      | `Iallreduce ->
          Builder.(iallreduce r ~target:buf ~op:Ast.Rsum (v buf))
      | `Irecv ->
          Builder.(
            irecv r ~target:buf
              ~src:((rank +: size -: i 1) %: size)
              ~tag:(i k) ())
      | `Isend ->
          Builder.(isend r ~dest:((rank +: i 1) %: size) ~tag:(i k) (v buf))
    in
    (* Isend must pair with a matching Irecv or the waits block forever;
       emit the partner eagerly so only the lifecycle can go wrong. *)
    let partner = function
      | `Isend ->
          [
            Builder.(
              send
                ~dest:((rank +: i 1) %: size)
                ~tag:(i (100 + k))
                (i 0));
            Builder.(
              recv ~target:buf
                ~src:((rank +: size -: i 1) %: size)
                ~tag:(i (100 + k)) ());
          ]
      | `Irecv ->
          [
            Builder.(
              send ~dest:((rank +: i 1) %: size) ~tag:(i k) (v buf));
          ]
      | _ -> []
    in
    map2
      (fun op shape ->
        let sstart = istart_of op in
        let before = partner op in
        let wait = Builder.wait r in
        let touch = mk (Ast.Print (Ast.Var buf)) in
        let body =
          match shape with
          | 0 -> [ sstart; wait ] (* clean *)
          | 1 -> [ sstart ] (* leak on every path *)
          | 2 ->
              (* completed on one rank only: leak + completion mismatch *)
              [
                sstart;
                mk
                  (Ast.If
                     ( Ast.Binop (Ast.Eq, Ast.Rank, Ast.Int 0),
                       [ wait ],
                       [] ));
              ]
          | 3 -> [ sstart; wait; Builder.wait r ] (* double wait *)
          | 4 -> [ sstart; touch; wait ] (* stale buffer read *)
          | _ -> [ sstart; mk (Ast.Compute (Ast.Int 1)); wait ]
        in
        before @ body)
      start (int_bound 5)
  in
  map
    (fun frags ->
      let nfrags = List.length frags in
      let decls =
        List.init nfrags (fun k ->
            mk (Ast.Decl (Printf.sprintf "b%d" k, Ast.Int 0)))
      in
      Builder.number_lines
        {
          Ast.funcs =
            [
              {
                Ast.fname = "main";
                params = [];
                body = decls @ List.concat frags;
                floc = Loc.none;
              };
            ];
        })
    (let* n = int_range 1 3 in
     flatten_l (List.init n fragment))

let arb_request_program =
  QCheck.make ~print:Minilang.Pretty.program_to_string gen_request_program

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "every dynamically observed lifecycle violation is statically \
            reported (split-phase generator)"
         ~count:40 arb_request_program
         (fun p ->
           let report = analyze p in
           List.for_all
             (statically_covered report)
             (dynamic_keys ~seeds:3 p)));
  ]

(* ------------------------------------------------------------------ *)
(* Request-free functions                                              *)
(* ------------------------------------------------------------------ *)

let shortcut_tests =
  [
    Alcotest.test_case "request-free function: empty facts everywhere" `Quick
      (fun () ->
        let f =
          Minilang.Ast.main_func
            (parse
               {|func main() {
                  var x = 0;
                  while (x < 3) { x = x + 1; MPI_Barrier(); }
                }|})
        in
        let g = Cfg.Build.of_func f in
        let r = Requests.analyze (Cfg.Actx.create ~params:[] g) ~taint_filter:true in
        Alcotest.(check int) "requests" 0 r.Requests.nrequests;
        Alcotest.(check int) "findings" 0 (List.length r.Requests.findings);
        Alcotest.(check int) "nodes" (Cfg.Graph.nb_nodes g)
          (Array.length r.Requests.inflight);
        Alcotest.(check bool) "nothing in flight" true
          (Array.for_all Requests.SSet.is_empty r.Requests.inflight));
    Alcotest.test_case "a wait with no start in scope is invalid" `Quick
      (fun () ->
        List.iter
          (fun src ->
            Alcotest.(check bool) src false
              (Minilang.Validate.is_valid
                 (Minilang.Validate.check_program (parse src))))
          [
            "func main() { MPI_Wait(r); }";
            "func main() { var t = 0; t = MPI_Test(r); }";
            {|func main() {
               if (rank() == 0) { r = MPI_Ibarrier(); }
               MPI_Wait(r);
             }|};
          ]);
  ]

let suite =
  [
    ("requests.static", static_tests);
    ("requests.clean", clean_tests);
    ("requests.dynamic", dynamic_tests);
    ("requests.hb", hb_tests);
    ("requests.qcheck", qcheck_tests);
    ("requests.shortcut", shortcut_tests);
  ]

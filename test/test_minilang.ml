(** Tests for the mini-language front end: lexer, parser, pretty-printer
    round trips, validator, builder helpers. *)

open Minilang

let parse src = Parser.parse_string ~file:"test" src

let parse_ok name src =
  Alcotest.test_case name `Quick (fun () ->
      let p = parse src in
      Alcotest.(check bool) "has main" true (Ast.find_func p "main" <> None))

let parse_fails name src =
  Alcotest.test_case name `Quick (fun () ->
      match parse src with
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> ()
      | _ -> Alcotest.fail "expected a parse error")

let roundtrip name src =
  Alcotest.test_case name `Quick (fun () ->
      let p1 = parse src in
      let printed = Pretty.program_to_string p1 in
      let p2 = Parser.parse_string ~file:"roundtrip" printed in
      if not (Ast.equal_program p1 p2) then
        Alcotest.failf "round trip changed the program:@\n%s" printed)

let lexer_tests =
  [
    Alcotest.test_case "tokens of simple source" `Quick (fun () ->
        let toks = Lexer.tokenize ~file:"t" "func main() { var x = 1; }" in
        let kinds = List.map fst toks in
        Alcotest.(check int) "token count" 12 (List.length kinds);
        Alcotest.(check bool) "starts with func" true (List.hd kinds = Lexer.FUNC));
    Alcotest.test_case "comments and pragma hash are skipped" `Quick (fun () ->
        let toks =
          Lexer.tokenize ~file:"t"
            "// line\n/* block\nstill */ #pragma omp barrier"
        in
        match List.map fst toks with
        | [ Lexer.PRAGMA; Lexer.OMP; Lexer.BARRIER; Lexer.EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "two-char operators" `Quick (fun () ->
        let toks = Lexer.tokenize ~file:"t" "== != <= >= && || < >" in
        let kinds = List.map fst toks in
        Alcotest.(check bool) "all distinct" true
          (kinds
          = [
              Lexer.EQEQ;
              Lexer.NE;
              Lexer.LE;
              Lexer.GE;
              Lexer.ANDAND;
              Lexer.OROR;
              Lexer.LT;
              Lexer.GT;
              Lexer.EOF;
            ]));
    Alcotest.test_case "locations track lines" `Quick (fun () ->
        let toks = Lexer.tokenize ~file:"t" "func\nmain" in
        match toks with
        | [ (Lexer.FUNC, l1); (Lexer.IDENT "main", l2); (Lexer.EOF, _) ] ->
            Alcotest.(check int) "line 1" 1 l1.Loc.line;
            Alcotest.(check int) "line 2" 2 l2.Loc.line
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "unterminated comment is an error" `Quick (fun () ->
        match Lexer.tokenize ~file:"t" "/* never closed" with
        | exception Lexer.Lex_error _ -> ()
        | _ -> Alcotest.fail "expected a lex error");
    Alcotest.test_case "unexpected character is an error" `Quick (fun () ->
        match Lexer.tokenize ~file:"t" "func $" with
        | exception Lexer.Lex_error _ -> ()
        | _ -> Alcotest.fail "expected a lex error");
  ]

let parser_tests =
  [
    parse_ok "empty main" "func main() { }";
    parse_ok "all collectives"
      {|func main() {
         var x = 0;
         MPI_Barrier();
         x = MPI_Bcast(x, 0);
         x = MPI_Reduce(x, sum, 0);
         x = MPI_Allreduce(x, max);
         x = MPI_Gather(x, 0);
         x = MPI_Scatter(x, 0);
         x = MPI_Allgather(x);
         x = MPI_Alltoall(x);
         x = MPI_Scan(x, prod);
         x = MPI_Reduce_scatter(x, min);
       }|};
    parse_ok "omp constructs"
      {|func main() {
         pragma omp parallel num_threads(4) {
           pragma omp single nowait { compute(1); }
           pragma omp master { compute(1); }
           pragma omp critical(io) { compute(1); }
           pragma omp barrier;
           pragma omp for i = 0 to 10 nowait { compute(i); }
           pragma omp sections { section { compute(1); } section { compute(2); } }
         }
       }|};
    parse_ok "control flow"
      {|func f(a, b) { if (a < b) { return; } else { f(b, a); } }
        func main() { var i = 0; while (i < 3) { i = i + 1; } for j = 0 to 4 { f(j, j); } }|};
    parse_ok "checks are parseable"
      {|func main() {
         __cc_next(3, "MPI_Reduce");
         __cc_return();
         __assert_monothread(4);
         __count_enter(1);
         __count_exit(1);
       }|};
    parse_ok "intrinsics in expressions"
      "func main() { var a = rank() + size() * omp_tid() - omp_nthreads(); }";
    parse_fails "missing semicolon" "func main() { var x = 1 }";
    parse_fails "unknown collective in assignment"
      "func main() { var x = 0; x = MPI_Sendrecv(1); }";
    parse_fails "unknown directive" "func main() { pragma omp taskloop { } }";
    parse_fails "function call in expression" "func main() { var x = f(); }";
    parse_fails "unknown reduce op" "func main() { var x = MPI_Allreduce(1, avg); }";
    Alcotest.test_case "precedence" `Quick (fun () ->
        let p = parse "func main() { var x = 1 + 2 * 3 < 4 && true; }" in
        let f = Ast.main_func p in
        match (List.hd f.Ast.body).Ast.sdesc with
        | Ast.Decl
            ( "x",
              Ast.Binop
                ( Ast.And,
                  Ast.Binop
                    ( Ast.Lt,
                      Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)),
                      Ast.Int 4 ),
                  Ast.Bool true ) ) ->
            ()
        | _ -> Alcotest.fail "wrong precedence parse");
    Alcotest.test_case "else-less if" `Quick (fun () ->
        let p = parse "func main() { if (true) { compute(1); } compute(2); }" in
        let f = Ast.main_func p in
        Alcotest.(check int) "two stmts" 2 (List.length f.Ast.body));
  ]

let roundtrip_tests =
  [
    roundtrip "collectives"
      {|func main() { var x = 0; x = MPI_Reduce(x + 1, sum, size() - 1); MPI_Barrier(); }|};
    roundtrip "nested control"
      {|func main() {
         var n = 4;
         for i = 0 to n { if (i % 2 == 0) { compute(i); } else { print(i); } }
         while (n > 0) { n = n - 1; }
       }|};
    roundtrip "omp nesting"
      {|func main() {
         pragma omp parallel {
           pragma omp single { MPI_Barrier(); }
           pragma omp sections nowait { section { compute(1); } section { compute(2); } }
         }
       }|};
    roundtrip "checks"
      {|func main() { __count_enter(3); MPI_Barrier(); __count_exit(3); }|};
    roundtrip "reduction clause"
      {|func main() {
         var acc = 0;
         pragma omp parallel {
           pragma omp for i = 0 to 8 reduction(sum: acc) nowait { acc = acc + i; }
         }
       }|};
    roundtrip "negative numbers and unary"
      {|func main() { var x = -1; var y = !(x < 0); var z = -x * 2; }|};
  ]

let validate_src src = Validate.check_program (parse src)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_error name src fragment =
  Alcotest.test_case name `Quick (fun () ->
      let errs = Validate.errors (validate_src src) in
      if
        not
          (List.exists (fun (i : Validate.issue) -> contains i.Validate.message fragment) errs)
      then
        Alcotest.failf "expected an error mentioning %S, got: %s" fragment
          (String.concat "; "
             (List.map (fun i -> i.Validate.message) errs)))

let expect_clean name src =
  Alcotest.test_case name `Quick (fun () ->
      match Validate.errors (validate_src src) with
      | [] -> ()
      | errs ->
          Alcotest.failf "expected no errors, got: %s"
            (String.concat "; "
               (List.map (fun i -> i.Validate.message) errs)))

let expect_warning name src =
  Alcotest.test_case name `Quick (fun () ->
      let issues = validate_src src in
      Alcotest.(check bool) "no errors" true (Validate.is_valid issues);
      Alcotest.(check bool)
        "has warnings" true
        (List.exists (fun i -> i.Validate.severity = Validate.Warning) issues))

let validator_tests =
  [
    expect_clean "correct hybrid program"
      {|func work(n) { pragma omp parallel { pragma omp for i = 0 to n { compute(i); } } }
        func main() { var n = 8; work(n); MPI_Barrier(); }|};
    expect_error "undeclared variable" "func main() { x = 1; }" "undeclared";
    expect_error "undeclared in expression" "func main() { var y = x + 1; }"
      "undeclared";
    expect_error "undefined function" "func main() { f(1); }" "undefined function";
    expect_error "arity mismatch" "func f(a) { } func main() { f(1, 2); }"
      "argument";
    expect_error "return inside parallel"
      "func main() { pragma omp parallel { return; } }" "return";
    expect_error "barrier inside single"
      "func main() { pragma omp parallel { pragma omp single { pragma omp barrier; } } }"
      "barrier";
    expect_error "nested worksharing"
      {|func main() { pragma omp parallel { pragma omp for i = 0 to 4 {
          pragma omp single { compute(1); } } } }|}
      "worksharing";
    expect_error "single inside master"
      {|func main() { pragma omp parallel { pragma omp master {
          pragma omp single { compute(1); } } } }|}
      "worksharing";
    expect_error "duplicate function" "func main() { } func main() { }"
      "duplicate function";
    expect_error "duplicate parameter" "func f(a, a) { } func main() { f(1, 2); }"
      "duplicate parameter";
    expect_warning "barrier under divergence"
      {|func main() { pragma omp parallel { if (omp_tid() == 0) { pragma omp barrier; } } }|};
    expect_warning "single implicit barrier under divergence"
      {|func main() { pragma omp parallel { if (omp_tid() == 0) {
          pragma omp single { compute(1); } } } }|};
    expect_clean "block scoping allows shadowing"
      {|func main() { var x = 1; if (x > 0) { var x = 2; compute(x); } compute(x); }|};
    expect_error "declaration does not escape its block"
      {|func main() { if (true) { var x = 1; } compute(x); }|}
      "undeclared";
    expect_clean "loop variable in scope inside body only"
      "func main() { for i = 0 to 3 { compute(i); } }";
    expect_error "loop variable does not escape"
      "func main() { for i = 0 to 3 { } compute(i); }" "undeclared";
    expect_error "undeclared reduction variable"
      {|func main() { pragma omp parallel {
          pragma omp for i = 0 to 3 reduction(sum: ghost) { compute(i); } } }|}
      "reduction variable";
  ]

let helper_tests =
  [
    Alcotest.test_case "program_size counts nested statements" `Quick (fun () ->
        let p =
          parse
            {|func main() { if (true) { compute(1); compute(2); } else { compute(3); } }|}
        in
        Alcotest.(check int) "size" 4 (Ast.program_size p));
    Alcotest.test_case "collectives_of_func finds nested collectives" `Quick
      (fun () ->
        let p =
          parse
            {|func main() { pragma omp parallel { pragma omp single { MPI_Barrier(); } }
               if (rank() == 0) { MPI_Allgather(1); } }|}
        in
        let colls = Ast.collectives_of_func (Ast.main_func p) in
        Alcotest.(check int) "two collectives" 2 (List.length colls));
    Alcotest.test_case "collective colours are distinct and nonzero" `Quick
      (fun () ->
        let open Ast in
        let all =
          [
            Barrier;
            Bcast { root = Int 0; value = Int 0 };
            Reduce { op = Rsum; root = Int 0; value = Int 0 };
            Allreduce { op = Rsum; value = Int 0 };
            Gather { root = Int 0; value = Int 0 };
            Scatter { root = Int 0; value = Int 0 };
            Allgather { value = Int 0 };
            Alltoall { value = Int 0 };
            Scan { op = Rsum; value = Int 0 };
            Reduce_scatter { op = Rsum; value = Int 0 };
          ]
        in
        let colors = List.map collective_color all in
        Alcotest.(check int)
          "distinct" (List.length all)
          (List.length (List.sort_uniq Int.compare colors));
        Alcotest.(check bool)
          "cc_return colour reserved" true
          (not (List.mem cc_return_color colors)));
    Alcotest.test_case "builder number_lines gives distinct lines" `Quick
      (fun () ->
        let p = Benchsuite.Npb_mz.bt_mz ~clazz:Benchsuite.Npb_mz.S () in
        let lines =
          List.concat_map
            (fun f ->
              List.map (fun s -> s.Ast.sloc.Loc.line) (Ast.stmts_of_func f))
            p.Ast.funcs
        in
        Alcotest.(check int)
          "all distinct" (List.length lines)
          (List.length (List.sort_uniq Int.compare lines)));
    Alcotest.test_case "map_blocks visits every block" `Quick (fun () ->
        let p =
          parse
            {|func main() { if (true) { compute(1); } while (false) { compute(2); } }|}
        in
        let count = ref 0 in
        let f = Ast.main_func p in
        let _ =
          Ast.map_blocks
            (fun b ->
              incr count;
              b)
            f
        in
        (* main body, if-then, if-else, while body *)
        Alcotest.(check int) "blocks visited" 4 !count);
    Alcotest.test_case "loc pretty-printing" `Quick (fun () ->
        let l = Loc.make ~file:"f.hml" ~line:3 ~col:7 in
        Alcotest.(check string) "format" "f.hml:3:7" (Loc.to_string l);
        Alcotest.(check bool) "none is none" true (Loc.is_none Loc.none));
    Alcotest.test_case "loc renderings" `Quick (fun () ->
        List.iter
          (fun (l, expected) ->
            Alcotest.(check string) expected expected (Loc.to_string l);
            Alcotest.(check string) expected expected (Fmt.str "%a" Loc.pp l))
          [
            (Loc.none, "<none>");
            (Loc.builder, "<builder>");
            (Loc.make ~file:"f.hml" ~line:3 ~col:7, "f.hml:3:7");
            (Loc.make ~file:"" ~line:0 ~col:5, ":0:5");
            (Loc.make ~file:"dir/a b.hml" ~line:120_000 ~col:0, "dir/a b.hml:120000:0");
            (Loc.make ~file:"x" ~line:(-1) ~col:12, "x:-1:12");
          ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"loc to_string agrees with Printf" ~count:1000
         (QCheck.make
            ~print:(fun (l : Loc.t) ->
              Printf.sprintf "{file=%S; line=%d; col=%d}" l.file l.line l.col)
            QCheck.Gen.(
              let file =
                oneof
                  [
                    return "";
                    return ":";
                    return "a:b:";
                    return "caf\xc3\xa9/\xff\x00.hml";
                    string_size ~gen:char (int_bound 12);
                  ]
              in
              let coord =
                oneof
                  [
                    return 0;
                    int_range 1 99;
                    int_range 0 max_int;
                    map (fun d -> max_int - d) (int_bound 1000);
                    map (fun e -> 1 lsl e) (int_range 0 61);
                  ]
              in
              map3
                (fun file line col -> Loc.make ~file ~line ~col)
                file coord coord))
         (fun l ->
           if Loc.is_none l then String.equal (Loc.to_string l) l.file
           else
             String.equal (Loc.to_string l)
               (Printf.sprintf "%s:%d:%d" l.file l.line l.col)));
  ]

let suite =
  [
    ("minilang.lexer", lexer_tests);
    ("minilang.parser", parser_tests);
    ("minilang.roundtrip", roundtrip_tests);
    ("minilang.validate", validator_tests);
    ("minilang.helpers", helper_tests);
  ]

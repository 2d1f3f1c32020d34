(** Pinned behaviour of the front end.  For every shipped program (the
    sample [.hml] files, the reproducers and the catalog at its three
    sizes) a digest of the [(token, Loc.t)] stream and of the parsed AST
    is recorded here, together with the exact error and location of a set
    of malformed sources.  A lexer or parser change that moves a token, a
    location, an AST node or an error fails these tests. *)

open Minilang

let programs_dir = "../examples/programs"

let read path = In_channel.with_open_bin path In_channel.input_all

(* Every pinned input, as (name, source), in a fixed order. *)
let inputs =
  lazy
    (let examples =
       Sys.readdir programs_dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".hml")
       |> List.sort String.compare
       |> List.map (fun f ->
              ("examples/" ^ f, read (Filename.concat programs_dir f)))
     in
     let reproducers =
       List.map
         (fun (e : Benchsuite.Reproducers.entry) ->
           ("reproducers/" ^ e.name, e.source))
         Benchsuite.Reproducers.all
     in
     let catalog =
       List.concat_map
         (fun (e : Benchsuite.Catalog.entry) ->
           List.map
             (fun (size, gen) ->
               ( Printf.sprintf "catalog/%s/%s" e.name size,
                 Pretty.program_to_string (gen ()) ))
             [
               ("small", e.generate_small);
               ("figure1", e.generate);
               ("large", e.generate_large);
             ])
         Benchsuite.Catalog.all
     in
     examples @ reproducers @ catalog)

let render_token (tok, loc) =
  Printf.sprintf "%s %s" (Loc.to_string loc) (Lexer.token_to_string tok)

let token_digest ~file src =
  let buf = Buffer.create 65536 in
  List.iter
    (fun t ->
      Buffer.add_string buf (render_token t);
      Buffer.add_char buf '\n')
    (Lexer.tokenize ~file src);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let ast_digest ~file src =
  let p = Parser.parse_string ~file src in
  Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ]))

(* (input, token-stream digest, AST digest). *)
let pinned =
  [
    ("examples/buggy_halo.hml",
     "9a839d8262faf3130a49623a157c6ef2",
     "321c602a6bff00a9b7a5a788d2643689");
    ("examples/farm_racy_update.hml",
     "29725f3c9333ae065f769244d887fb44",
     "fd644f701b86240114d6a01d0e39be7b");
    ("examples/farm_rank_divergence.hml",
     "a35ef8be4a16ec532096525ce26d6f45",
     "c437aeadb394a74006c9dfe189dfdbe5");
    ("examples/ibarrier_divergence.hml",
     "6f44c2a578d527aca2bc7a1917a66f06",
     "2229b775b8551c1035b58d9163baefd7");
    ("examples/jacobi.hml",
     "f7527e92b17d283110fae3210b498a28",
     "5b1cdf9820d1c2819bccd114aa2e83e9");
    ("examples/leaky_request.hml",
     "17a3adc8e80bf1097ca4bc512d3f1814",
     "5e26d6b890d7d98b4a669c0eebf2f4fa");
    ("examples/pipeline.hml",
     "d23af7d99b8cdd525853b2bc9ea774ff",
     "5a0859e04a6bfc48ea7e07b002855268");
    ("examples/racy_counter.hml",
     "e93b637d3bbe8bd09e689726e82d312c",
     "3f69823e5c58afeff0e88fedb250d37c");
    ("examples/racy_flag.hml",
     "c8d357940f5ba3262c1c8af3b34fccd8",
     "70ce8b4638073086ddc0b2a93ea9a8c0");
    ("examples/racy_ring.hml",
     "4972cbf59b5f7e2ed96eb9852762603f",
     "adfe442d47341ca71447fe7195c01a18");
    ("reproducers/deadlock-barrier",
     "3dc266efcf845d51769c8f2c5e51ebdf",
     "738e293e970e2e8aedf8d2da3be679e8");
    ("reproducers/racy-singles",
     "8d73ee15847bf98fc114fd8c278d9eaf",
     "f68b761bcfb4d283d446cb86adf1e39b");
    ("reproducers/master-vs-single",
     "371935270a0806163a13d510675dc123",
     "2c5294a6b2588062f6224e9188847d25");
    ("reproducers/racy-ring",
     "ed915f37450acf61aa63c95b74addf1b",
     "585bc02d2b13575911108b00536a7da1");
    ("reproducers/sections-collectives",
     "8c0b2b5785461cea7b35dd9ab4db8587",
     "12a37acb8f16022e731878ba4601c38f");
    ("catalog/BT-MZ/small",
     "90625914ea60923eb438f628136be192",
     "8c3c47f8120f5072adcd905846d1b7d5");
    ("catalog/BT-MZ/figure1",
     "1150fcc5cc751b450369d319483f2889",
     "1f29cb1460e7085e1a977342d97f0a01");
    ("catalog/BT-MZ/large",
     "6280b8ce095e219270094790b6b0be06",
     "1e233029c150f976574061565a4454bb");
    ("catalog/SP-MZ/small",
     "39a63568ba0f9408e750df3f941b1ac9",
     "b9653df5039e4d47a355d9aacce7bac5");
    ("catalog/SP-MZ/figure1",
     "41d8e8676c5c3699cc10488685def7a4",
     "78ca2b043fbaecce3a2241c2a1c92342");
    ("catalog/SP-MZ/large",
     "8c80aea5ef0be9b914ecad11958072f9",
     "17e4f45b47454f9e1037712ab638245d");
    ("catalog/LU-MZ/small",
     "9a9e8249c24ee727016f65b07e2788f4",
     "e0001d1d7663afd2f51738f0eb46e1b0");
    ("catalog/LU-MZ/figure1",
     "6b6626c0f15598c40523acf43d9e3b9e",
     "3e47ecb8a33cb2ef3ab74b9606ce3fac");
    ("catalog/LU-MZ/large",
     "e71d925319eb39f58da3d6f7e3d3a2de",
     "4e9536d40cc178229fd86725b9250712");
    ("catalog/EPCC suite/small",
     "76649120f76ca5bacb21425a2a3b8330",
     "298f58c3263584dfbedf8156e9e7ed17");
    ("catalog/EPCC suite/figure1",
     "104b806308ee0907942a29db2ab5d794",
     "ca41f9d09020feac082013a17a00babb");
    ("catalog/EPCC suite/large",
     "9a78550b4dbdeda9628444cb6fae61a2",
     "d25f53c400cb7c62247777a1ff2b9998");
    ("catalog/HERA/small",
     "ca10a433c937455f47e623a1c5f895e4",
     "dea48a04584b3106b3a3dfbcccece6fd");
    ("catalog/HERA/figure1",
     "b08a3fddc67a469a050038f8d5035eba",
     "07448b4147fd12886b1a4fd71c26ead1");
    ("catalog/HERA/large",
     "99b3b143c2d36deb7b5c22e4242eebd7",
     "6f0b1a8fb04901031afc04737e8c6c13");
  ]

(* What parsing [src] does, as one comparable line. *)
let outcome src =
  match Parser.parse_string ~file:"t" src with
  | _ -> "ok"
  | exception Parser.Parse_error (loc, msg) ->
      Printf.sprintf "parse error at %s: %s" (Loc.to_string loc) msg
  | exception Lexer.Lex_error (loc, msg) ->
      Printf.sprintf "lex error at %s: %s" (Loc.to_string loc) msg

(* (case, source, outcome). *)
let malformed =
  [
    ( "missing semicolon",
      "func main() { var x = 1 }",
      "parse error at t:1:25: expected ';' but found '}'" );
    ( "missing function keyword",
      "var x = 1;",
      "parse error at t:1:1: expected 'func' but found 'var'" );
    ( "error at EOF inside a block",
      "func main() {\n  var x = 1;\n",
      "parse error at t:3:1: expected statement, found '<eof>'" );
    ( "error at EOF after a line comment",
      "func main() { // open\n",
      "parse error at t:2:1: expected statement, found '<eof>'" );
    ( "error at EOF of an empty parameter list",
      "func main(",
      "parse error at t:1:11: expected identifier, found '<eof>'" );
    ( "lex error after a parse error wins",
      "func main() { var = 1; }\nfunc f() { x = 1 $ 2; }",
      "lex error at t:2:18: unexpected character '$'" );
    ( "unterminated block comment",
      "func main() { }\n/* open\n\n",
      "lex error at t:2:1: unterminated block comment" );
    ( "unterminated string",
      "func main() { __cc_next(1, \"MPI_Barrier); }",
      "lex error at t:1:28: unterminated string literal" );
    ( "unknown intrinsic",
      "func main() { var x = foo(); }",
      "parse error at t:1:28: unknown intrinsic 'foo' (function calls are statements)" );
    ( "compute arity",
      "func main() { compute(1, 2); }\n",
      "parse error at t:1:30: 'compute' takes exactly one argument" );
    ( "unknown directive",
      "func main() {\n\tpragma omp taskloop { } }",
      "parse error at t:2:13: unknown OpenMP directive 'taskloop'" );
    ( "single ampersand",
      "func main() { var x = a & b; }",
      "lex error at t:1:25: unexpected character '&'" );
    ( "unknown collective",
      "func main() { var x = 0; x = MPI_Sendrecv(1); }",
      "parse error at t:1:43: expected ')' but found '1'" );
    ( "check needs an integer",
      "func main() { __count_enter(x); }",
      "parse error at t:1:29: expected integer literal in check" );
  ]

let tokens src = List.map render_token (Lexer.tokenize ~file:"t" src)

let digest_tests =
  [
    Alcotest.test_case "every shipped program is pinned" `Quick (fun () ->
        Alcotest.(check (list string))
          "inputs"
          (List.map (fun (n, _, _) -> n) pinned)
          (List.map fst (Lazy.force inputs)));
    Alcotest.test_case "token streams and ASTs match their digests" `Quick
      (fun () ->
        let mismatches =
          List.filter_map
            (fun (name, src) ->
              match List.find_opt (fun (n, _, _) -> n = name) pinned with
              | None -> None
              | Some (_, tok, ast) ->
                  let tok' = token_digest ~file:name src in
                  let ast' = ast_digest ~file:name src in
                  if tok = tok' && ast = ast' then None
                  else
                    Some
                      (Printf.sprintf "%s: tokens %s, ast %s" name tok' ast'))
            (Lazy.force inputs)
        in
        if mismatches <> [] then
          Alcotest.failf "digests changed:@\n%s" (String.concat "\n" mismatches));
  ]

let outcome_case name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) "outcome" expected (outcome src))

let error_tests = List.map (fun (n, src, e) -> outcome_case n src e) malformed

(* Lexical rules added with the streaming lexer: integer literals are
   bounded by [max_int], and '#' only introduces [pragma]. *)
let above_max_int =
  (* [max_int] ends in 3 on every word size. *)
  let s = string_of_int max_int in
  String.sub s 0 (String.length s - 1) ^ "4"

let literal_tests =
  [
    outcome_case "huge integer literal is a located lex error"
      "func main() {\n  var x = 99999999999999999999;\n}"
      "lex error at t:2:11: integer literal out of range";
    outcome_case "max_int + 1 is out of range"
      (Printf.sprintf "func main() { var x = %s; }" above_max_int)
      "lex error at t:1:23: integer literal out of range";
    Alcotest.test_case "max_int is a literal" `Quick (fun () ->
        let p =
          Parser.parse_string ~file:"t"
            (Printf.sprintf "func main() { var x = %d; }" max_int)
        in
        match (List.hd (Ast.main_func p).Ast.body).Ast.sdesc with
        | Ast.Decl ("x", Ast.Int n) -> Alcotest.(check int) "value" max_int n
        | _ -> Alcotest.fail "expected a declaration");
    outcome_case "stray '#' is a located lex error"
      "func main() { var x # = 1; }"
      "lex error at t:1:21: stray '#' (only '#pragma' is allowed)";
    outcome_case "'#' at the end of the source" "func main() { }\n#"
      "lex error at t:2:1: stray '#' (only '#pragma' is allowed)";
    outcome_case "'#' before a word other than pragma"
      "func main() { #pragmas omp barrier; }"
      "lex error at t:1:15: stray '#' (only '#pragma' is allowed)";
    outcome_case "a stray '#' beats an earlier parse error"
      "func main() { var = 1; }\n#"
      "lex error at t:2:1: stray '#' (only '#pragma' is allowed)";
    outcome_case "'#pragma', also with blanks after '#'"
      "func main() {\n#pragma omp barrier;\n# \tpragma omp barrier; }" "ok";
    Alcotest.test_case "'#pragma' is located at 'pragma'" `Quick (fun () ->
        Alcotest.(check (list string))
          "tokens"
          [ "t:1:4 pragma"; "t:1:11 omp"; "t:1:14 <eof>" ]
          (tokens "#  pragma omp"));
  ]

let location_tests =
  [
    Alcotest.test_case "CRLF and tabs count one column each" `Quick (fun () ->
        Alcotest.(check (list string))
          "tokens"
          [
            "t:1:1 func"; "t:1:6 a"; "t:1:7 ("; "t:1:8 )"; "t:1:10 {";
            "t:2:2 var"; "t:2:6 x"; "t:2:8 ="; "t:2:10 1"; "t:2:11 ;";
            "t:3:1 }"; "t:4:1 <eof>";
          ]
          (tokens "func a() {\r\n\tvar x = 1;\r\n}\r\n"));
    Alcotest.test_case "lines advance across block comments and strings"
      `Quick (fun () ->
        Alcotest.(check (list string))
          "tokens"
          [ "t:3:10 func"; "t:4:1 \"a\\nb\""; "t:5:4 x"; "t:5:5 <eof>" ]
          (tokens "/* one\ntwo\nthree */ func\n\"a\nb\" x"));
    Alcotest.test_case "EOF is located after trailing blanks and newlines"
      `Quick (fun () ->
        Alcotest.(check (list string))
          "blanks" [ "t:1:1 func"; "t:1:8 <eof>" ] (tokens "func   ");
        Alcotest.(check (list string))
          "newline"
          [ "t:2:1 func"; "t:3:1 <eof>" ]
          (tokens "// c\nfunc\n"));
  ]

let suite =
  [
    ("frontend.digests", digest_tests);
    ("frontend.errors", error_tests);
    ("frontend.locations", location_tests);
    ("frontend.literals", literal_tests);
  ]

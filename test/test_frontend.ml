(** Pinned behaviour of the front end: the exact error and location of a
    set of malformed sources, and the located tokens of small ones.  A
    lexer or parser change that moves an error or a location fails these
    tests; the digests of every shipped program's token stream and AST
    are the [frontend] section of {!Test_golden}. *)

open Minilang

let render_token (tok, loc) =
  Printf.sprintf "%s %s" (Loc.to_string loc) (Lexer.token_to_string tok)

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
    ("frontend.errors", error_tests);
    ("frontend.locations", location_tests);
    ("frontend.literals", literal_tests);
  ]

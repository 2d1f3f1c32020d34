(** Recursive-descent parser for the mini-language.

    Grammar (statements end with [;], blocks are brace-delimited):
    {v
    program  ::= func*
    func     ::= "func" IDENT "(" [IDENT ("," IDENT)*] ")" block
    block    ::= "{" stmt* "}"
    stmt     ::= "var" IDENT "=" expr ";"
               | IDENT "=" expr ";"            (assignment)
               | IDENT "=" MPI_coll ";"        (collective with result)
               | MPI_coll ";"                  (collective)
               | IDENT "=" MPI_istart ";"      (split-phase start, binds request)
               | "MPI_Wait" "(" IDENT ")" ";"
               | IDENT "=" "MPI_Test" "(" IDENT ")" ";"
               | IDENT "(" args ")" ";"        (procedure call / intrinsic stmt)
               | "if" "(" expr ")" block ["else" block]
               | "while" "(" expr ")" block
               | "for" IDENT "=" expr "to" expr block
               | "return" ";"
               | ["#"] "pragma" "omp" omp
    omp      ::= "parallel" ["num_threads" "(" expr ")"] block
               | "single" ["nowait"] block
               | "master" block
               | "critical" ["(" IDENT ")"] block
               | "barrier" ";"
               | "for" IDENT "=" expr "to" expr
                       ["reduction" "(" op ":" IDENT ")"] ["nowait"] block
               | "sections" ["nowait"] "{" ("section" block)* "}"
    v}

    Expressions use C precedence; intrinsics are [rank()], [size()],
    [omp_tid()], [omp_nthreads()].  Statement-position identifiers
    [compute(e)], [print(e)] and the [__cc_next]/[__cc_return]/
    [__assert_monothread]/[__count_enter]/[__count_exit] check forms are
    recognised by name. *)

open Ast
open Lexer

exception Parse_error of Loc.t * string

(* The parser pulls tokens from the lexer one at a time; [tok] is the
   current one, located by [Lexer.loc lx]. *)
type state = { lx : Lexer.t; mutable tok : token }

let loc st = Lexer.loc st.lx

let error st msg = raise (Parse_error (loc st, msg))

let advance st = st.tok <- Lexer.next st.lx

(* [eat] and [accept] take constant constructors only, for which [==] is
   exact. *)
let eat st tok =
  if st.tok == tok then advance st
  else
    error st
      (Printf.sprintf "expected '%s' but found '%s'" (token_to_string tok)
         (token_to_string st.tok))

(* Consumes [tok] if it is the current token. *)
let accept st tok = st.tok == tok && (advance st; true)

let eat_ident st =
  match st.tok with
  | IDENT x ->
      advance st;
      x
  | t -> error st (Printf.sprintf "expected identifier, found '%s'" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  let rec loop lhs =
    if accept st OROR then loop (Binop (Or, lhs, parse_and st)) else lhs
  in
  loop lhs

and parse_and st =
  let lhs = parse_cmp st in
  let rec loop lhs =
    if accept st ANDAND then loop (Binop (And, lhs, parse_cmp st)) else lhs
  in
  loop lhs

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match st.tok with
    | EQEQ -> Some Eq
    | NE -> Some Ne
    | LT -> Some Lt
    | LE -> Some Le
    | GT -> Some Gt
    | GE -> Some Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      advance st;
      Binop (op, lhs, parse_add st)

and parse_add st =
  let lhs = parse_mul st in
  let rec loop lhs =
    match st.tok with
    | PLUS ->
        advance st;
        loop (Binop (Add, lhs, parse_mul st))
    | MINUS ->
        advance st;
        loop (Binop (Sub, lhs, parse_mul st))
    | _ -> lhs
  in
  loop lhs

and parse_mul st =
  let lhs = parse_unary st in
  let rec loop lhs =
    match st.tok with
    | STAR ->
        advance st;
        loop (Binop (Mul, lhs, parse_unary st))
    | SLASH ->
        advance st;
        loop (Binop (Div, lhs, parse_unary st))
    | PERCENT ->
        advance st;
        loop (Binop (Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  loop lhs

and parse_unary st =
  match st.tok with
  | MINUS ->
      advance st;
      Unop (Neg, parse_unary st)
  | BANG ->
      advance st;
      Unop (Not, parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  match st.tok with
  | INT n ->
      advance st;
      Int n
  | TRUE ->
      advance st;
      Bool true
  | FALSE ->
      advance st;
      Bool false
  | LPAREN ->
      advance st;
      let e = parse_expr st in
      eat st RPAREN;
      e
  | IDENT x -> (
      advance st;
      match st.tok with
      | LPAREN -> (
          advance st;
          eat st RPAREN;
          match x with
          | "rank" -> Rank
          | "size" -> Size
          | "omp_tid" -> Tid
          | "omp_nthreads" -> Nthreads
          | _ ->
              error st
                (Printf.sprintf
                   "unknown intrinsic '%s' (function calls are statements)" x))
      | _ -> Var x)
  | t -> error st (Printf.sprintf "expected expression, found '%s'" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Collectives                                                         *)
(* ------------------------------------------------------------------ *)

let is_collective_name = function
  | "MPI_Barrier" | "MPI_Bcast" | "MPI_Reduce" | "MPI_Allreduce" | "MPI_Gather"
  | "MPI_Scatter" | "MPI_Allgather" | "MPI_Alltoall" | "MPI_Scan"
  | "MPI_Reduce_scatter" ->
      true
  | _ -> false

let parse_reduce_op st =
  let name = eat_ident st in
  match reduce_op_of_name name with
  | Some op -> op
  | None -> error st (Printf.sprintf "unknown reduction operator '%s'" name)

(** Parses the argument list of collective [name]; the leading ['('] has not
    been consumed. *)
let parse_collective st name =
  eat st LPAREN;
  let c =
    match name with
    | "MPI_Barrier" -> Barrier
    | "MPI_Bcast" ->
        let value = parse_expr st in
        eat st COMMA;
        let root = parse_expr st in
        Bcast { root; value }
    | "MPI_Reduce" ->
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        eat st COMMA;
        let root = parse_expr st in
        Reduce { op; root; value }
    | "MPI_Allreduce" ->
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        Allreduce { op; value }
    | "MPI_Gather" ->
        let value = parse_expr st in
        eat st COMMA;
        let root = parse_expr st in
        Gather { root; value }
    | "MPI_Scatter" ->
        let value = parse_expr st in
        eat st COMMA;
        let root = parse_expr st in
        Scatter { root; value }
    | "MPI_Allgather" ->
        let value = parse_expr st in
        Allgather { value }
    | "MPI_Alltoall" ->
        let value = parse_expr st in
        Alltoall { value }
    | "MPI_Scan" ->
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        Scan { op; value }
    | "MPI_Reduce_scatter" ->
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        Reduce_scatter { op; value }
    | _ -> error st (Printf.sprintf "unknown collective '%s'" name)
  in
  eat st RPAREN;
  c

let is_request_op_name = function
  | "MPI_Ibarrier" | "MPI_Iallreduce" | "MPI_Isend" | "MPI_Irecv" -> true
  | _ -> false

(** Parses the argument list of split-phase start [name]; the leading
    ['('] has not been consumed.  [MPI_Iallreduce]/[MPI_Irecv] take the
    destination buffer variable as their first argument (the request
    variable itself is on the left of the [=]). *)
let parse_request_op st name =
  eat st LPAREN;
  let rop =
    match name with
    | "MPI_Ibarrier" -> Ibarrier
    | "MPI_Iallreduce" ->
        let target = eat_ident st in
        eat st COMMA;
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        Iallreduce { op; target; value }
    | "MPI_Isend" ->
        let value = parse_expr st in
        eat st COMMA;
        let dest = parse_expr st in
        eat st COMMA;
        let tag = parse_expr st in
        Isend { value; dest; tag }
    | "MPI_Irecv" ->
        let target = eat_ident st in
        eat st COMMA;
        let src = parse_expr st in
        eat st COMMA;
        let tag = parse_expr st in
        Irecv { target; src; tag }
    | _ -> error st (Printf.sprintf "unknown nonblocking operation '%s'" name)
  in
  eat st RPAREN;
  rop

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_args st =
  eat st LPAREN;
  if accept st RPAREN then []
  else
    let rec loop acc =
      let e = parse_expr st in
      if accept st COMMA then loop (e :: acc)
      else (
        eat st RPAREN;
        List.rev (e :: acc))
    in
    loop []

let parse_check st name =
  let int_arg () =
    eat st LPAREN;
    let n = match st.tok with
      | INT n ->
          advance st;
          n
      | _ -> error st "expected integer literal in check"
    in
    eat st RPAREN;
    n
  in
  match name with
  | "__cc_return" ->
      eat st LPAREN;
      eat st RPAREN;
      Cc_return
  | "__cc_next" ->
      eat st LPAREN;
      let color =
        match st.tok with
        | INT n ->
            advance st;
            n
        | _ -> error st "expected integer colour in __cc_next"
      in
      eat st COMMA;
      let coll_name =
        match st.tok with
        | STRING s ->
            advance st;
            s
        | _ -> error st "expected string collective name in __cc_next"
      in
      eat st RPAREN;
      Cc_next_collective { color; coll_name }
  | "__assert_monothread" -> Assert_monothread { region = int_arg () }
  | "__count_enter" -> Count_enter { region = int_arg () }
  | "__count_exit" -> Count_exit { region = int_arg () }
  | _ -> error st (Printf.sprintf "unknown check '%s'" name)

let is_check_name = function
  | "__cc_next" | "__cc_return" | "__assert_monothread" | "__count_enter"
  | "__count_exit" ->
      true
  | _ -> false

let rec parse_block st =
  eat st LBRACE;
  let rec loop acc =
    if accept st RBRACE then List.rev acc else loop (parse_stmt st :: acc)
  in
  loop []

and parse_stmt st =
  let sloc = loc st in
  let mk sdesc = { sdesc; sloc } in
  match st.tok with
  | VAR ->
      advance st;
      let x = eat_ident st in
      eat st ASSIGN;
      let e = parse_expr st in
      eat st SEMI;
      mk (Decl (x, e))
  | IF ->
      advance st;
      eat st LPAREN;
      let c = parse_expr st in
      eat st RPAREN;
      let bt = parse_block st in
      let bf = if accept st ELSE then parse_block st else [] in
      mk (If (c, bt, bf))
  | WHILE ->
      advance st;
      eat st LPAREN;
      let c = parse_expr st in
      eat st RPAREN;
      mk (While (c, parse_block st))
  | FOR ->
      advance st;
      let x = eat_ident st in
      eat st ASSIGN;
      let lo = parse_expr st in
      eat st TO;
      let hi = parse_expr st in
      mk (For (x, lo, hi, parse_block st))
  | RETURN ->
      advance st;
      eat st SEMI;
      mk Return
  | PRAGMA -> parse_pragma st sloc
  | IDENT x -> (
      advance st;
      match st.tok with
      | ASSIGN -> (
          advance st;
          match st.tok with
          | IDENT name when is_collective_name name ->
              advance st;
              let c = parse_collective st name in
              eat st SEMI;
              mk (Coll (Some x, c))
          | IDENT "MPI_Recv" ->
              advance st;
              eat st LPAREN;
              let src = parse_expr st in
              eat st COMMA;
              let tag = parse_expr st in
              eat st RPAREN;
              eat st SEMI;
              mk (Recv { target = x; src; tag })
          | IDENT name when is_request_op_name name ->
              advance st;
              let rop = parse_request_op st name in
              eat st SEMI;
              mk (Istart { req = x; rop })
          | IDENT "MPI_Test" ->
              advance st;
              eat st LPAREN;
              let req = eat_ident st in
              eat st RPAREN;
              eat st SEMI;
              mk (Test { target = x; req })
          | _ ->
              let e = parse_expr st in
              eat st SEMI;
              mk (Assign (x, e)))
      | LPAREN when is_collective_name x ->
          let c = parse_collective st x in
          eat st SEMI;
          mk (Coll (None, c))
      | LPAREN when String.equal x "MPI_Wait" ->
          eat st LPAREN;
          let req = eat_ident st in
          eat st RPAREN;
          eat st SEMI;
          mk (Wait { req })
      | LPAREN when String.equal x "MPI_Send" ->
          eat st LPAREN;
          let value = parse_expr st in
          eat st COMMA;
          let dest = parse_expr st in
          eat st COMMA;
          let tag = parse_expr st in
          eat st RPAREN;
          eat st SEMI;
          mk (Send { value; dest; tag })
      | LPAREN when is_check_name x ->
          let c = parse_check st x in
          eat st SEMI;
          mk (Check c)
      | LPAREN -> (
          let args = parse_args st in
          eat st SEMI;
          match (x, args) with
          | "compute", [ e ] -> mk (Compute e)
          | "print", [ e ] -> mk (Print e)
          | "compute", _ | "print", _ ->
              error st (Printf.sprintf "'%s' takes exactly one argument" x)
          | _ -> mk (Call (x, args)))
      | t ->
          error st
            (Printf.sprintf "unexpected '%s' after identifier '%s'"
               (token_to_string t) x))
  | t -> error st (Printf.sprintf "expected statement, found '%s'" (token_to_string t))

and parse_pragma st sloc =
  let mk sdesc = { sdesc; sloc } in
  eat st PRAGMA;
  eat st OMP;
  match st.tok with
  | PARALLEL ->
      advance st;
      let num_threads =
        match st.tok with
        | NUM_THREADS ->
            advance st;
            eat st LPAREN;
            let e = parse_expr st in
            eat st RPAREN;
            Some e
        | _ -> None
      in
      mk (Omp_parallel { num_threads; body = parse_block st })
  | SINGLE ->
      advance st;
      let nowait = accept st NOWAIT in
      mk (Omp_single { nowait; body = parse_block st })
  | MASTER ->
      advance st;
      mk (Omp_master (parse_block st))
  | CRITICAL ->
      advance st;
      let name =
        if accept st LPAREN then (
          let x = eat_ident st in
          eat st RPAREN;
          Some x)
        else None
      in
      mk (Omp_critical (name, parse_block st))
  | BARRIER ->
      advance st;
      eat st SEMI;
      mk Omp_barrier
  | FOR ->
      advance st;
      let var = eat_ident st in
      eat st ASSIGN;
      let lo = parse_expr st in
      eat st TO;
      let hi = parse_expr st in
      let reduction =
        if accept st REDUCTION then begin
          eat st LPAREN;
          let op = parse_reduce_op st in
          eat st COLON;
          let x = eat_ident st in
          eat st RPAREN;
          Some (op, x)
        end
        else None
      in
      let nowait = accept st NOWAIT in
      mk (Omp_for { var; lo; hi; nowait; reduction; body = parse_block st })
  | SECTIONS ->
      advance st;
      let nowait = accept st NOWAIT in
      eat st LBRACE;
      let rec loop acc =
        match st.tok with
        | SECTION ->
            advance st;
            loop (parse_block st :: acc)
        | RBRACE ->
            advance st;
            List.rev acc
        | t ->
            error st
              (Printf.sprintf "expected 'section' or '}', found '%s'"
                 (token_to_string t))
      in
      mk (Omp_sections { nowait; sections = loop [] })
  | t ->
      error st
        (Printf.sprintf "unknown OpenMP directive '%s'" (token_to_string t))

let parse_func st =
  let floc = loc st in
  eat st FUNC;
  let fname = eat_ident st in
  eat st LPAREN;
  let params =
    if accept st RPAREN then []
    else
      let rec loop acc =
        let x = eat_ident st in
        if accept st COMMA then loop (x :: acc)
        else (
          eat st RPAREN;
          List.rev (x :: acc))
      in
      loop []
  in
  { fname; params; body = parse_block st; floc }

(** Parse a whole program from a string.  A lexical error anywhere in
    the source is reported in preference to a syntax error: on a
    [Parse_error] the rest of the source is scanned first.
    @raise Parse_error or {!Lexer.Lex_error} on malformed input. *)
let parse_string ?(file = "<string>") src =
  let lx = Lexer.make ~file src in
  let st = { lx; tok = Lexer.next lx } in
  let rec loop acc =
    if st.tok == EOF then { funcs = List.rev acc }
    else loop (parse_func st :: acc)
  in
  try loop []
  with Parse_error _ as e ->
    while Lexer.next lx != EOF do () done;
    raise e

(** Parse a program from a file on disk. *)
let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_string ~file:path src

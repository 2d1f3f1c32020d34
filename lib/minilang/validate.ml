(** Semantic validation of mini-language programs.

    The PARCOACH analyses assume an explicit fork/join model with perfectly
    nested regions; this validator enforces the discipline (and the standard
    OpenMP nesting restrictions) before any analysis runs:

    - called procedures must exist with matching arity;
    - variables must be declared before use (block scoping);
    - [return] may not appear inside an OpenMP construct (no branching out
      of a structured block);
    - [barrier] may not be closely nested inside [single]/[master]/
      [critical]/worksharing constructs;
    - request variables (bound by split-phase starts) are opaque: they may
      only be named by [MPI_Wait]/[MPI_Test], never read, assigned, or
      reused while in scope — the discipline that makes the static request
      lifecycle tracking of [Parcoach.Requests] sound;
    - worksharing constructs ([single], [for], [sections]) may not be
      closely nested inside another worksharing or [master]/[critical]
      region of the same team;
    - a barrier (explicit, or implicit at the end of a worksharing
      construct without [nowait]) under non-uniform control flow inside a
      parallel region is reported as a warning, since all threads of the
      team must encounter it. *)

open Ast
module STbl = Hashtbl.Make (String)

type severity = Error | Warning

type issue = { severity : severity; loc : Loc.t; message : string }

let pp_issue ppf i =
  Fmt.pf ppf "%s: %a: %s"
    (match i.severity with Error -> "error" | Warning -> "warning")
    Loc.pp i.loc i.message

let issue_to_string i = Fmt.str "%a" pp_issue i

let errors issues = List.filter (fun i -> i.severity = Error) issues

let is_valid issues = errors issues = []

let catch_syntax_error parse =
  let error loc message = Result.Error { severity = Error; loc; message } in
  match parse () with
  | parsed -> Ok parsed
  | exception Parser.Parse_error (loc, msg) -> error loc ("parse error: " ^ msg)
  | exception Lexer.Lex_error (loc, msg) -> error loc ("lex error: " ^ msg)

(* Context tracked while walking a function body; the names in scope
   are in the walk's {!Scope}. *)
type ctx = {
  in_parallel : int;  (* nesting depth of parallel regions *)
  in_worksharing : bool;  (* closely nested in single/for/sections *)
  in_single_like : bool;  (* closely nested in single/master/critical *)
  in_divergent : bool;  (* under if/while/for since innermost parallel *)
}

let initial_ctx =
  {
    in_parallel = 0;
    in_worksharing = false;
    in_single_like = false;
    in_divergent = false;
  }

(* What a name in scope denotes: a variable, or a request variable bound
   by a split-phase start. *)
type binding = Variable | Request

(* Call-site checks resolve callees against this table rather than
   scanning the function list per call; mirror [find_func]'s
   first-definition-wins semantics under duplicate names. *)
let arity_of program =
  let tbl = STbl.create (List.length program.funcs) in
  List.iter
    (fun f ->
      if not (STbl.mem tbl f.fname) then
        STbl.add tbl f.fname (List.length f.params))
    program.funcs;
  STbl.find_opt tbl

let check_func_in scope ~arity f =
  let issues = ref [] in
  let add severity loc message = issues := { severity; loc; message } :: !issues in
  let is_variable x =
    match Scope.find_opt scope x with Some Variable -> true | _ -> false
  in
  let rec check_expr loc e =
    match e with
    | Int _ | Bool _ | Rank | Size | Tid | Nthreads -> ()
    | Var x -> (
        match Scope.find_opt scope x with
        | Some Variable -> ()
        | Some Request ->
            add Error loc
              (Printf.sprintf
                 "request variable '%s' may only be named by \
                  MPI_Wait/MPI_Test" x)
        | None ->
            add Error loc (Printf.sprintf "use of undeclared variable '%s'" x))
    | Unop (_, e) -> check_expr loc e
    | Binop (_, a, b) ->
        check_expr loc a;
        check_expr loc b
  in
  let check_buffer loc target =
    match Scope.find_opt scope target with
    | Some Variable -> ()
    | Some Request ->
        add Error loc
          (Printf.sprintf "request variable '%s' may not be a receive buffer"
             target)
    | None ->
        add Error loc
          (Printf.sprintf "receive into undeclared variable '%s'" target)
  in
  let check_request loc req =
    match Scope.find_opt scope req with
    | Some Request -> ()
    | Some Variable ->
        add Error loc (Printf.sprintf "'%s' is not a request variable" req)
    | None ->
        add Error loc (Printf.sprintf "use of undeclared request '%s'" req)
  in
  (* Walks a block in its own scope level, so a declaration is visible to
     the rest of its block (but not outside). *)
  let rec check_block ctx block =
    let m = Scope.mark scope in
    check_stmts ctx block;
    Scope.release scope m
  (* [check_block] with the loop variable [x] bound over the body. *)
  and check_loop_body ctx x block =
    let m = Scope.mark scope in
    Scope.bind scope x Variable;
    check_stmts ctx block;
    Scope.release scope m
  and check_stmts ctx = function
    | [] -> ()
    | s :: rest ->
        check_stmt ctx s;
        (match s.sdesc with
        | Decl (x, _) -> Scope.bind scope x Variable
        | Istart { req; _ } -> Scope.bind scope req Request
        | _ -> ());
        check_stmts ctx rest
  and check_stmt ctx s =
    let loc = s.sloc in
    (* Checks that precede the statement's reads. *)
    (match s.sdesc with
    | Istart { req; _ } ->
        if Scope.mem scope req then
          add Error loc
            (Printf.sprintf
               "request variable '%s' redeclares a name already in scope" req)
    | Omp_for { nowait; _ } ->
        check_worksharing_nesting ctx loc "for";
        if (not nowait) && ctx.in_divergent then
          add Warning loc
            "implicit barrier of worksharing 'for' under non-uniform control flow"
    | _ -> ());
    (* The assigned variable, then the reads, in [Ast.stmt_uses] order. *)
    let reads, target = stmt_uses s in
    (match (s.sdesc, target) with
    | Decl _, _ | _, None -> ()
    | Assign _, Some x -> (
        match Scope.find_opt scope x with
        | Some Variable -> ()
        | Some Request ->
            add Error loc
              (Printf.sprintf "request variable '%s' may not be assigned" x)
        | None ->
            add Error loc
              (Printf.sprintf "assignment to undeclared variable '%s'" x))
    | Coll _, Some x ->
        if not (is_variable x) then
          add Error loc
            (Printf.sprintf
               "collective result assigned to undeclared variable '%s'" x)
    | Test _, Some x ->
        if not (is_variable x) then
          add Error loc
            (Printf.sprintf "test result assigned to undeclared variable '%s'"
               x)
    | _, Some x ->
        (* The buffer of a receive or of an [Irecv]/[Iallreduce] start. *)
        check_buffer loc x);
    List.iter (check_expr loc) reads;
    let divergent () =
      if ctx.in_parallel > 0 then { ctx with in_divergent = true } else ctx
    in
    match s.sdesc with
    | If (_, bt, bf) ->
        let ctx' = divergent () in
        check_block ctx' bt;
        check_block ctx' bf
    | While (_, b) -> check_block (divergent ()) b
    | For (x, _, _, b) -> check_loop_body (divergent ()) x b
    | Return ->
        if ctx.in_parallel > 0 || ctx.in_worksharing || ctx.in_single_like then
          add Error loc "'return' may not appear inside an OpenMP construct"
    | Call (f, args) -> (
        match arity f with
        | None -> add Error loc (Printf.sprintf "call to undefined function '%s'" f)
        | Some n ->
            if n <> List.length args then
              add Error loc
                (Printf.sprintf "'%s' expects %d argument(s), got %d" f n
                   (List.length args)))
    | Wait { req } | Test { req; _ } -> check_request loc req
    | Omp_parallel { body; _ } ->
        check_block { initial_ctx with in_parallel = ctx.in_parallel + 1 } body
    | Omp_single { nowait; body } ->
        check_worksharing_nesting ctx loc "single";
        if (not nowait) && ctx.in_divergent then
          add Warning loc
            "implicit barrier of 'single' under non-uniform control flow";
        check_block
          { ctx with in_worksharing = true; in_single_like = true }
          body
    | Omp_master body ->
        check_block { ctx with in_single_like = true } body
    | Omp_critical (_, body) ->
        check_block { ctx with in_single_like = true } body
    | Omp_barrier ->
        if ctx.in_worksharing || ctx.in_single_like then
          add Error loc
            "'barrier' may not be closely nested inside a worksharing, \
             'single', 'master' or 'critical' region";
        if ctx.in_divergent then
          add Warning loc "'barrier' under non-uniform control flow"
    | Omp_for { var; reduction; body; _ } ->
        (match reduction with
        | Some (_, x) when not (is_variable x) ->
            add Error loc
              (Printf.sprintf
                 "reduction variable '%s' is not declared in the enclosing scope" x)
        | Some _ | None -> ());
        check_loop_body { ctx with in_worksharing = true } var body
    | Omp_sections { nowait; sections } ->
        check_worksharing_nesting ctx loc "sections";
        if (not nowait) && ctx.in_divergent then
          add Warning loc
            "implicit barrier of 'sections' under non-uniform control flow";
        List.iter (check_block { ctx with in_worksharing = true }) sections
    | Decl _ | Assign _ | Compute _ | Print _ | Send _ | Recv _ | Istart _
    | Coll _ | Check _ ->
        ()
  and check_worksharing_nesting ctx loc name =
    if ctx.in_worksharing then
      add Error loc
        (Printf.sprintf
           "worksharing construct '%s' may not be closely nested inside \
            another worksharing region" name);
    if ctx.in_single_like then
      add Error loc
        (Printf.sprintf
           "worksharing construct '%s' may not be closely nested inside a \
            'single', 'master' or 'critical' region" name)
  in
  (* Duplicate parameter names. *)
  let rec dup = function
    | [] -> ()
    | x :: rest ->
        if List.mem x rest then
          add Error f.floc
            (Printf.sprintf "duplicate parameter '%s' in function '%s'" x
               f.fname);
        dup rest
  in
  dup f.params;
  let m = Scope.mark scope in
  List.iter (fun x -> Scope.bind scope x Variable) f.params;
  check_block initial_ctx f.body;
  Scope.release scope m;
  List.rev !issues

let check_func ~arity f = check_func_in (Scope.create ()) ~arity f

(* Every definition but the last of a name is reported, in program
   order: count the definitions, then count down while walking. *)
let duplicate_functions program =
  let remaining = STbl.create (List.length program.funcs) in
  List.iter
    (fun f ->
      STbl.replace remaining f.fname
        (1 + Option.value ~default:0 (STbl.find_opt remaining f.fname)))
    program.funcs;
  List.filter_map
    (fun f ->
      let later = STbl.find remaining f.fname - 1 in
      STbl.replace remaining f.fname later;
      if later > 0 then
        Some
          {
            severity = Error;
            loc = f.floc;
            message = Printf.sprintf "duplicate function '%s'" f.fname;
          }
      else None)
    program.funcs

let check_program program =
  let arity = arity_of program in
  let scope = Scope.create () in
  List.concat_map (check_func_in scope ~arity) program.funcs
  @ duplicate_functions program

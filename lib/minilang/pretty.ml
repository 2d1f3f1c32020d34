(** Pretty-printer for the mini-language.

    The output is valid surface syntax: [Parser.parse_string] of the printed
    form yields a structurally equal program (round-trip property, tested
    with qcheck).  Instrumentation checks print as [__cc_next(...)] etc.,
    which the parser also accepts, so instrumented programs can be emitted
    and re-run. *)

open Ast

let unop_str = function Neg -> "-" | Not -> "!"

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

(* Precedence levels, higher binds tighter. *)
let binop_prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div | Mod -> 5

let rec pp_expr_prec prec ppf e =
  match e with
  | Int n -> if n < 0 then Fmt.pf ppf "(%d)" n else Fmt.int ppf n
  | Bool b -> Fmt.bool ppf b
  | Var x -> Fmt.string ppf x
  | Rank -> Fmt.string ppf "rank()"
  | Size -> Fmt.string ppf "size()"
  | Tid -> Fmt.string ppf "omp_tid()"
  | Nthreads -> Fmt.string ppf "omp_nthreads()"
  | Unop (op, e) -> Fmt.pf ppf "%s%a" (unop_str op) (pp_expr_prec 6) e
  | Binop (op, a, b) ->
      let p = binop_prec op in
      let body ppf () =
        Fmt.pf ppf "%a %s %a" (pp_expr_prec p) a (binop_str op)
          (pp_expr_prec (p + 1))
          b
      in
      if p < prec then Fmt.pf ppf "(%a)" body () else body ppf ()

let pp_expr ppf e = pp_expr_prec 0 ppf e

let expr_to_string e = Fmt.str "%a" pp_expr e

let pp_collective ppf (target, c) =
  let tgt ppf () =
    match target with None -> () | Some x -> Fmt.pf ppf "%s = " x
  in
  match c with
  | Barrier -> Fmt.pf ppf "%aMPI_Barrier()" tgt ()
  | Bcast { root; value } ->
      Fmt.pf ppf "%aMPI_Bcast(%a, %a)" tgt () pp_expr value pp_expr root
  | Reduce { op; root; value } ->
      Fmt.pf ppf "%aMPI_Reduce(%a, %s, %a)" tgt () pp_expr value
        (reduce_op_name op) pp_expr root
  | Allreduce { op; value } ->
      Fmt.pf ppf "%aMPI_Allreduce(%a, %s)" tgt () pp_expr value
        (reduce_op_name op)
  | Gather { root; value } ->
      Fmt.pf ppf "%aMPI_Gather(%a, %a)" tgt () pp_expr value pp_expr root
  | Scatter { root; value } ->
      Fmt.pf ppf "%aMPI_Scatter(%a, %a)" tgt () pp_expr value pp_expr root
  | Allgather { value } ->
      Fmt.pf ppf "%aMPI_Allgather(%a)" tgt () pp_expr value
  | Alltoall { value } -> Fmt.pf ppf "%aMPI_Alltoall(%a)" tgt () pp_expr value
  | Scan { op; value } ->
      Fmt.pf ppf "%aMPI_Scan(%a, %s)" tgt () pp_expr value (reduce_op_name op)
  | Reduce_scatter { op; value } ->
      Fmt.pf ppf "%aMPI_Reduce_scatter(%a, %s)" tgt () pp_expr value
        (reduce_op_name op)

let pp_request_op ppf (req, rop) =
  match rop with
  | Ibarrier -> Fmt.pf ppf "%s = MPI_Ibarrier()" req
  | Iallreduce { op; target; value } ->
      Fmt.pf ppf "%s = MPI_Iallreduce(%s, %a, %s)" req target pp_expr value
        (reduce_op_name op)
  | Isend { value; dest; tag } ->
      Fmt.pf ppf "%s = MPI_Isend(%a, %a, %a)" req pp_expr value pp_expr dest
        pp_expr tag
  | Irecv { target; src; tag } ->
      Fmt.pf ppf "%s = MPI_Irecv(%s, %a, %a)" req target pp_expr src pp_expr
        tag

let pp_check ppf = function
  | Cc_next_collective { color; coll_name } ->
      Fmt.pf ppf "__cc_next(%d, \"%s\")" color coll_name
  | Cc_return -> Fmt.string ppf "__cc_return()"
  | Assert_monothread { region } ->
      Fmt.pf ppf "__assert_monothread(%d)" region
  | Count_enter { region } -> Fmt.pf ppf "__count_enter(%d)" region
  | Count_exit { region } -> Fmt.pf ppf "__count_exit(%d)" region

let indent n ppf () = Fmt.string ppf (String.make (2 * n) ' ')

let rec pp_stmt n ppf s =
  let ind = indent n in
  match s.sdesc with
  | Decl (x, e) -> Fmt.pf ppf "%avar %s = %a;" ind () x pp_expr e
  | Assign (x, e) -> Fmt.pf ppf "%a%s = %a;" ind () x pp_expr e
  | If (c, bt, []) ->
      Fmt.pf ppf "%aif (%a) %a" ind () pp_expr c (pp_block n) bt
  | If (c, bt, bf) ->
      Fmt.pf ppf "%aif (%a) %a else %a" ind () pp_expr c (pp_block n) bt
        (pp_block n) bf
  | While (c, b) -> Fmt.pf ppf "%awhile (%a) %a" ind () pp_expr c (pp_block n) b
  | For (x, lo, hi, b) ->
      Fmt.pf ppf "%afor %s = %a to %a %a" ind () x pp_expr lo pp_expr hi
        (pp_block n) b
  | Return -> Fmt.pf ppf "%areturn;" ind ()
  | Call (f, args) ->
      Fmt.pf ppf "%a%s(%a);" ind () f (Fmt.list ~sep:Fmt.comma pp_expr) args
  | Compute e -> Fmt.pf ppf "%acompute(%a);" ind () pp_expr e
  | Print e -> Fmt.pf ppf "%aprint(%a);" ind () pp_expr e
  | Coll (tgt, c) -> Fmt.pf ppf "%a%a;" ind () pp_collective (tgt, c)
  | Send { value; dest; tag } ->
      Fmt.pf ppf "%aMPI_Send(%a, %a, %a);" ind () pp_expr value pp_expr dest
        pp_expr tag
  | Recv { target; src; tag } ->
      Fmt.pf ppf "%a%s = MPI_Recv(%a, %a);" ind () target pp_expr src pp_expr tag
  | Istart { req; rop } -> Fmt.pf ppf "%a%a;" ind () pp_request_op (req, rop)
  | Wait { req } -> Fmt.pf ppf "%aMPI_Wait(%s);" ind () req
  | Test { target; req } -> Fmt.pf ppf "%a%s = MPI_Test(%s);" ind () target req
  | Omp_parallel { num_threads; body } ->
      let nt ppf () =
        match num_threads with
        | None -> ()
        | Some e -> Fmt.pf ppf " num_threads(%a)" pp_expr e
      in
      Fmt.pf ppf "%apragma omp parallel%a %a" ind () nt () (pp_block n) body
  | Omp_single { nowait; body } ->
      Fmt.pf ppf "%apragma omp single%s %a" ind ()
        (if nowait then " nowait" else "")
        (pp_block n) body
  | Omp_master body -> Fmt.pf ppf "%apragma omp master %a" ind () (pp_block n) body
  | Omp_critical (name, body) ->
      let nm ppf () =
        match name with None -> () | Some x -> Fmt.pf ppf "(%s)" x
      in
      Fmt.pf ppf "%apragma omp critical%a %a" ind () nm () (pp_block n) body
  | Omp_barrier -> Fmt.pf ppf "%apragma omp barrier;" ind ()
  | Omp_for { var; lo; hi; nowait; reduction; body } ->
      let red ppf () =
        match reduction with
        | None -> ()
        | Some (op, x) -> Fmt.pf ppf " reduction(%s: %s)" (reduce_op_name op) x
      in
      Fmt.pf ppf "%apragma omp for %s = %a to %a%a%s %a" ind () var pp_expr lo
        pp_expr hi red ()
        (if nowait then " nowait" else "")
        (pp_block n) body
  | Omp_sections { nowait; sections } ->
      Fmt.pf ppf "%apragma omp sections%s {@\n%a@\n%a}" ind ()
        (if nowait then " nowait" else "")
        (Fmt.list ~sep:(Fmt.any "@\n") (fun ppf b ->
             Fmt.pf ppf "%asection %a" (indent (n + 1)) () (pp_block (n + 1)) b))
        sections ind ()
  | Check c -> Fmt.pf ppf "%a%a;" ind () pp_check c

and pp_block n ppf block =
  match block with
  | [] -> Fmt.string ppf "{ }"
  | _ ->
      Fmt.pf ppf "{@\n%a@\n%a}"
        (Fmt.list ~sep:(Fmt.any "@\n") (pp_stmt (n + 1)))
        block (indent n) ()

let pp_func ppf f =
  Fmt.pf ppf "func %s(%a) %a" f.fname
    (Fmt.list ~sep:Fmt.comma Fmt.string)
    f.params (pp_block 0) f.body

let pp_program ppf p =
  Fmt.pf ppf "%a@\n" (Fmt.list ~sep:(Fmt.any "@\n@\n") pp_func) p.funcs

let program_to_string p = Fmt.str "%a" pp_program p

(** Call-graph summaries for the interprocedural extension.

    The paper's phases are intra-procedural: a rank-dependent branch
    around a {e call} to a function that performs collectives escapes
    phase 3.  The extension computes, bottom-up over the call graph, which
    functions may (transitively) execute a collective, and lets phase 3
    treat calls to such functions as pseudo-collective sites — each with a
    stable "call colour" so the dynamic CC agreement can also cover them. *)

open Minilang

(** Direct callees of a function body, in source order (duplicates kept). *)
let callees (f : Ast.func) =
  List.rev
    (Ast.fold_stmts
       (fun acc s ->
         match s.Ast.sdesc with Ast.Call (g, _) -> g :: acc | _ -> acc)
       [] f.Ast.body)

let has_direct_collective (f : Ast.func) =
  Ast.fold_stmts
    (fun acc s -> acc || match s.Ast.sdesc with Ast.Coll _ -> true | _ -> false)
    false f.Ast.body

type summary = { direct_collective : bool; calls : string list }

let direct_callees f = List.sort_uniq String.compare (callees f)

let summary f =
  { direct_collective = has_direct_collective f; calls = direct_callees f }

(** [may_collect program] maps each function name to [true] iff it may
    execute an MPI collective, directly or through calls (recursion is
    handled by the fixpoint; unknown callees are ignored — the validator
    rejects them anyway). *)
let may_collect ?summary:memo (program : Ast.program) =
  let summary_of f =
    match Option.bind memo (fun m -> m f) with
    | Some s -> s
    | None -> summary f
  in
  let tbl = Hashtbl.create 16 in
  (* Each body is summarised once; the fixpoint iterates over the callee
     lists of the functions not yet known to collect. *)
  let pending =
    ref
      (List.filter_map
         (fun f ->
           let s = summary_of f in
           Hashtbl.replace tbl f.Ast.fname s.direct_collective;
           if s.direct_collective then None else Some (f.Ast.fname, s.calls))
         program.Ast.funcs)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    pending :=
      List.filter
        (fun (fname, calls) ->
          let collects =
            List.exists
              (fun g -> Option.value ~default:false (Hashtbl.find_opt tbl g))
              calls
          in
          if collects then begin
            Hashtbl.replace tbl fname true;
            changed := true
          end;
          not collects)
        !pending
  done;
  fun fname -> Option.value ~default:false (Hashtbl.find_opt tbl fname)

(* Call colours start above the collective colours (1..10) and 0
   (cc_return); assignment is by sorted function name, so every process
   of an SPMD run derives the same colours. *)
let call_color_base = 16

(** Stable CC colour per collective-bearing function. *)
let call_colors ~collects (program : Ast.program) =
  let names =
    List.filter collects
      (List.sort String.compare
         (List.map (fun f -> f.Ast.fname) program.Ast.funcs))
  in
  List.mapi (fun i name -> (name, call_color_base + i)) names

type closure = { collects : string -> bool; colors : (string * int) list }

let closure ?summary program =
  let collects = may_collect ?summary program in
  { collects; colors = call_colors ~collects program }

(** Printable pseudo-collective name of a call site. *)
let call_site_name fname = "call:" ^ fname

(** Call-graph summaries for the interprocedural extension: which
    functions may (transitively) execute an MPI collective, and stable CC
    colours for calls to them. *)

(** Direct callees of a function body, in source order. *)
val callees : Minilang.Ast.func -> string list

(** Direct callees of a function body, sorted and distinct. *)
val direct_callees : Minilang.Ast.func -> string list

(** What {!may_collect} needs of one function body. *)
type summary = {
  direct_collective : bool;  (** The body calls a collective itself. *)
  calls : string list;  (** {!direct_callees}. *)
}

val summary : Minilang.Ast.func -> summary

(** [may_collect p fname]: may [fname] execute a collective, directly or
    through calls (fixpoint over the call graph)?  [summary] is a memo:
    when it returns [Some s] for a function, [s] stands in for
    [summary f], so callers that keep per-function summaries skip the
    body walks. *)
val may_collect :
  ?summary:(Minilang.Ast.func -> summary option) ->
  Minilang.Ast.program ->
  string ->
  bool

(** First call colour; collective colours and [cc_return] live below. *)
val call_color_base : int

(** Stable (sorted-by-name) CC colour per collective-bearing function;
    [collects] is [may_collect program]. *)
val call_colors :
  collects:(string -> bool) -> Minilang.Ast.program -> (string * int) list

(** A program's interprocedural closure: {!may_collect} and the
    {!call_colors} it gives. *)
type closure = {
  collects : string -> bool;
  colors : (string * int) list;
}

(** [closure program] — [summary] is {!may_collect}'s memo. *)
val closure :
  ?summary:(Minilang.Ast.func -> summary option) -> Minilang.Ast.program -> closure

(** Pseudo-collective name of a call site: ["call:<fname>"]. *)
val call_site_name : string -> string

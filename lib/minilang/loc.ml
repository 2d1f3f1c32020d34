(** Source locations.

    Every AST node carries a location so that analysis warnings and runtime
    aborts can point back at the offending line, exactly as PARCOACH reports
    "the names and lines in the source code of MPI collective calls
    involved". *)

type t = {
  file : string;  (** Source file name, or ["<builder>"] for generated code. *)
  line : int;  (** 1-based line number; 0 when unknown. *)
  col : int;  (** 1-based column number; 0 when unknown. *)
}

(** The unknown location, used for synthesised nodes. *)
let none = { file = "<none>"; line = 0; col = 0 }

(** Location for programs built with {!Builder} rather than parsed. *)
let builder = { file = "<builder>"; line = 0; col = 0 }

let make ~file ~line ~col = { file; line; col }

let is_none l = l.line = 0 && l.col = 0

let pp ppf l =
  if is_none l then Fmt.string ppf l.file
  else Fmt.pf ppf "%s:%d:%d" l.file l.line l.col

let to_string l =
  if is_none l then l.file
  else String.concat ":" [ l.file; string_of_int l.line; string_of_int l.col ]

let equal a b = String.equal a.file b.file && a.line = b.line && a.col = b.col

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else Int.compare a.col b.col

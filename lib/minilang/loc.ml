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

(* Number of decimal digits of [n >= 0]. *)
let rec ndigits n = if n < 10 then 1 else 1 + ndigits (n / 10)

(* Write the [len] decimal digits of [n >= 0] ending at [b.[stop - 1]]. *)
let rec write_digits b stop n len =
  if len > 0 then begin
    Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (n mod 10)));
    write_digits b (stop - 1) (n / 10) (len - 1)
  end

(* "file:line:col", written straight into an exactly-sized buffer:
   lowering renders one per statement, and [string_of_int] goes through
   the [%d] format parser on every call. *)
let to_string l =
  if is_none l then l.file
  else if l.line < 0 || l.col < 0 then
    String.concat ":" [ l.file; string_of_int l.line; string_of_int l.col ]
  else
    let nf = String.length l.file in
    let nl = ndigits l.line and nc = ndigits l.col in
    let len = nf + nl + nc + 2 in
    let b = Bytes.create len in
    Bytes.blit_string l.file 0 b 0 nf;
    Bytes.unsafe_set b nf ':';
    write_digits b (nf + 1 + nl) l.line nl;
    Bytes.unsafe_set b (nf + 1 + nl) ':';
    write_digits b len l.col nc;
    Bytes.unsafe_to_string b

let equal a b = String.equal a.file b.file && a.line = b.line && a.col = b.col

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else Int.compare a.col b.col

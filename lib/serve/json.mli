(** Minimal JSON values for the daemon's line-delimited protocol.

    Self-contained (no external JSON dependency, like
    {!Parcoach.Json_report}): a value type, a recursive-descent parser and
    a printer.  Numbers without a fraction or exponent parse as [Int];
    everything else numeric parses as [Float], and one beyond the float
    range (["1e999"]) is a parse error.  Object member order is
    preserved.  [Raw] lets already-rendered JSON (a
    {!Parcoach.Json_report} string) be spliced into a response without a
    parse/print round trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string  (** Pre-rendered JSON, emitted verbatim. *)

val parse : string -> (t, string) result

(** The compact encoding.  Strings are escaped once, by
    {!Parcoach.Json_report.escape}; the result is one string of exactly
    the encoded length, filled from the value's pieces ([Raw] members
    are copied once, straight into it). *)
val to_string : t -> string

(** Object member lookup ([None] on absent member or non-object). *)
val member : string -> t -> t option

(** Coercions; [None] when the value has a different shape. *)

val to_str : t -> string option

val to_int : t -> int option

val to_bool : t -> bool option

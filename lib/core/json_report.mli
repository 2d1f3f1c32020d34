(** Machine-readable (JSON) rendering of analysis reports, for CI
    integration of the [parcoachc] tool and the [parcoachd] daemon. *)

(** The body of a JSON string literal for [s]: a backslash goes before
    each double quote and each backslash; newline, tab and carriage
    return become [\n], [\t] and [\r]; every other byte below 0x20
    becomes [\u00xx] (lowercase hex); every other byte, 0x7f and
    0x80-0xff included, is copied verbatim.  When no byte needs escaping
    the result is [s] itself; otherwise it is one exact-size string.
    This is the one JSON escaper: reports and the daemon's codec both go
    through it. *)
val escape : string -> string

(** [str s] is [escape s] between double quotes, built as one string. *)
val str : string -> string

(** Per-phase timings as one object, [{"phase": ns, ...}] (integer
    nanoseconds, phases in first-recorded order). *)
val timings_json : Timings.t -> string

(** Validation issues as a JSON array of
    [{"severity","loc","message"}] objects. *)
val issues_json : Minilang.Validate.issue list -> string

(** [{"valid":false,"issues":[...]}] — the rendering of a program that
    failed validation ([parcoachc --json] stdout, daemon responses). *)
val invalid_to_string : Minilang.Validate.issue list -> string

(** One entry of the report's ["functions"] array: the function's name,
    warnings and check counts. *)
val func_json : Driver.func_report -> string

(** The whole report as one JSON object: totals by class plus per-function
    warnings and check statistics.  [issues], when given, prepends
    ["valid":true] and the ["issues"] array so machine consumers see one
    format whether or not validation succeeded; omitted, the output is
    byte-compatible with the pre-daemon format.  [fragments], when
    given, are the function entries in report order (default: {!func_json}
    of each); a caller that memoizes fragments must pass exactly
    {!func_json}'s bytes. *)
val to_string :
  ?issues:Minilang.Validate.issue list ->
  ?fragments:string list ->
  Driver.report ->
  string

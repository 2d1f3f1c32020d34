(** Machine-readable (JSON) rendering of analysis reports, for CI
    integration of the [parcoachc] tool and the [parcoachd] daemon. *)

(** JSON string escaping (exposed for tests). *)
val escape : string -> string

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
    byte-compatible with the pre-daemon format.  [func_json] renders each
    function's entry (default {!func_json}); a caller that memoizes
    fragments passes a lookup that must return exactly {!func_json}'s
    bytes. *)
val to_string :
  ?issues:Minilang.Validate.issue list ->
  ?func_json:(Driver.func_report -> string) ->
  Driver.report ->
  string

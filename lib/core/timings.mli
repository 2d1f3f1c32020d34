(** Per-phase wall-clock accounting, shared by [parcoachc --timings] and
    the [parcoachd] daemon responses.

    A value accumulates named phase durations; recording the same phase
    twice sums the durations (the driver records one [pword]/[phase1]/...
    entry per analysed function).  Accumulation is mutex-protected, so the
    domain-parallel analysis path can record into a shared value. *)

type t

val create : unit -> t

(** [record t phase f] runs [f], adds its wall-clock duration to [phase],
    and returns its result.  Exceptions propagate; the duration up to the
    raise is still recorded. *)
val record : t -> string -> (unit -> 'a) -> 'a

(** [record_opt tm phase f]: {!record} when [tm] is [Some], plain [f ()]
    otherwise — the shape every optional [--timings] code path needs
    (CLI drivers, the bench harness, the fuzzing farm). *)
val record_opt : t option -> string -> (unit -> 'a) -> 'a

(** Add [ns] nanoseconds to [phase] directly. *)
val add_ns : t -> string -> float -> unit

(** Accumulated [(phase, nanoseconds)] rows, in first-recorded order. *)
val entries : t -> (string * float) list

val total_ns : t -> float

(** Human-readable table, one [phase: time] row per line. *)
val pp : t Fmt.t

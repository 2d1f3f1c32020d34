(** MPI-2 thread levels: how MPI calls may be placed relative to threads.
    PARCOACH's phase 1 derives the minimal level each collective placement
    requires. *)

type t = Single | Funneled | Serialized | Multiple

val to_string : t -> string

(** Accepts both the [MPI_THREAD_*] constants and lowercase short names. *)
val of_string : string -> t option

(** [includes provided required]: does an MPI library initialised at
    [provided] accept a call site requiring [required]? *)
val includes : t -> t -> bool

val max : t -> t -> t

val pp : t Fmt.t

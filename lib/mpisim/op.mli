(** Reduction operators of the simulated MPI library. *)

type t = Sum | Prod | Max | Min | Land | Lor

val to_string : t -> string

(** Fold over a non-empty contribution list.
    @raise Invalid_argument on an empty list. *)
val fold : t -> int list -> int

val pp : t Fmt.t

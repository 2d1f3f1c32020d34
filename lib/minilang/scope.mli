(** A mutable block scope for walks over a function body: names map to
    bindings, the newest binding of a name shadows the older ones, and
    {!release} undoes every binding made since a {!mark}, at block exit.
    A lookup is an expected-O(1) hash lookup once the scope is large,
    and a short stack scan before that, so a walk over a small function
    builds no table; a binding allocates no tree. *)

type 'a t

(** A point to {!release} back to. *)
type mark

val create : unit -> 'a t

(** [bind sc x v] makes [v] the binding of [x] until the enclosing
    {!release}. *)
val bind : 'a t -> string -> 'a -> unit

(** The newest binding of a name, if any. *)
val find_opt : 'a t -> string -> 'a option

val mem : 'a t -> string -> bool

val mark : 'a t -> mark

(** [release sc m] drops the bindings made since [m] was taken, which
    uncovers the ones they shadowed.  Marks are released newest first. *)
val release : 'a t -> mark -> unit

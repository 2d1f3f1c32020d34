(** Bounded per-function summary cache.

    Maps a {!Hash} key to an {!entry}: the function the summary was
    computed from (kept for the collision guard and location relocation),
    its {!Parcoach.Driver.func_report}, and a memo of that report's
    rendered JSON fragment.  Thread-safe: daemon pool workers share one
    cache.  Eviction is FIFO over insertion order once [capacity] entries
    are exceeded. *)

type entry = {
  func : Minilang.Ast.func;
  report : Parcoach.Driver.func_report;
  mutable json : string option;
      (** {!Parcoach.Json_report.func_json} of [report], once rendered. *)
}

(** A fresh entry with no rendered fragment. *)
val entry : Minilang.Ast.func -> Parcoach.Driver.func_report -> entry

type t

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
}

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 summaries. *)

(** Lookup; counts a hit or a miss. *)
val find : t -> string -> entry option

(** Insert unless the key is live already. *)
val add : t -> string -> entry -> unit

(** Swap in a new entry for a live key (no-op when the key is absent);
    used to re-anchor a cached summary on the latest source layout so
    repeated hits at a stable layout skip relocation.  The new entry
    brings its own fragment memo, so a relocated report never keeps the
    old layout's rendering. *)
val replace : t -> string -> entry -> unit

val stats : t -> stats

(** Drop every entry (stats are reset too). *)
val clear : t -> unit

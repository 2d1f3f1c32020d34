(** Structural program fingerprints (location-insensitive, built from
    {!Serve.Hash.func_digest}) for corpus dedup and sharding. *)

val program : Minilang.Ast.program -> string

(** The fingerprint of a program whose functions have these
    {!Serve.Hash.func_digest}s, in source order: [program p] is
    [of_digests (List.map Serve.Hash.func_digest p.funcs)]. *)
val of_digests : string list -> string

(** [shard ~shards fp]: stable shard index in [0, shards). *)
val shard : shards:int -> string -> int

(** Structural program fingerprints for corpus dedup and sharding: the
    location-insensitive per-function digests of {!Serve.Hash}, folded
    over the whole program.  Two corpus entries with equal fingerprints
    decode to structurally equal programs (up to digest collision, which
    the differential verdict copy is insensitive to: structurally equal
    programs get byte-identical verdicts anyway). *)

let of_digests digests =
  Digest.to_hex (Digest.string (String.concat "\x00" digests))

let program (p : Minilang.Ast.program) =
  of_digests (List.map Serve.Hash.func_digest p.Minilang.Ast.funcs)

(** Shard assignment: a stable hash of a fingerprint.  The pipeline
    shards by the *family* fingerprint (the skeleton without its injected
    fault), so all mutants of one skeleton land on one shard and hit that
    shard's summary cache. *)
let shard ~shards fp = Hashtbl.hash fp mod shards

(** Parallelism words (§2 of the paper).

    For a CFG node [n], the parallelism word [pw(n)] is the sequence of
    parallel constructs and barriers traversed from the beginning of the
    function to [n].  The language [L = (S|PB*S)*] characterises the nodes
    in monothreaded context; two nodes whose words decompose as
    [w·S_j·u]/[w·S_k·v] with [j ≠ k] sit in concurrent monothreaded
    regions. *)

(** [P i]: parallel region opened by [Omp_begin] node [i]; [S i]:
    single-threaded region ([single], [master] or one [section]); [B]:
    thread barrier. *)
type token = P of int | S of int | B

type word = token list

val token_to_string : token -> string

(** Compact rendering, e.g. ["P4·B·S9"]; the empty word prints ["ε"]. *)
val to_string : word -> string

val pp : word Fmt.t

(** Token-wise equality, without polymorphic compare; physically equal
    words are equal at once. *)
val equal : word -> word -> bool

(** The paper's "simplification when OpenMP regions end": remove the
    region's token and everything after it (identity for tokenless
    regions). *)
val simplify_region_end :
  word -> kind:Cfg.Graph.region_kind -> region:int -> word

(** Join of two incoming words: keeps the longest common prefix when they
    differ only by trailing barriers (loops crossing barriers), fails on
    structural conflicts.  Equal words join to the first, uncopied. *)
val merge : word -> word -> (word, word * word) result

type inconsistency = { node : int; word_a : word; word_b : word }

type t = {
  graph : Cfg.Graph.t;
  in_words : word option array;
  inconsistencies : inconsistency list;
}

(** Compute [pw] for every reachable node, starting from [initial] (the
    compile-time "initial level" prefix, empty by default) on the graph of
    [actx]; the context's reverse postorder seeds the worklist. *)
val compute : ?initial:word -> Cfg.Actx.t -> t

(** Word of a node.  @raise Invalid_argument on unreachable nodes. *)
val pw : t -> int -> word

val pw_opt : t -> int -> word option

val strip_barriers : word -> word

(** Membership in [L = (S|PB*S)*] (barriers ignored). *)
val in_language : word -> bool

(** A node is in monothreaded context iff its word is in [L]. *)
val monothreaded : word -> bool

(** Are two nodes in concurrent monothreaded regions? *)
val concurrent : word -> word -> bool

(** Id of the innermost enclosing tokenful region, if any. *)
val innermost_region : word -> int option

(** The [(S_j, S_k)] region pair of a {!concurrent} word pair. *)
val concurrent_region_pair : word -> word -> (int * int) option

(** Minimal MPI thread level required by a collective with this word;
    [kind_of_region] recovers construct kinds to distinguish [master]
    (funneled) from [single] (serialized). *)
val required_level :
  kind_of_region:(int -> Cfg.Graph.region_kind option) ->
  word ->
  Mpisim.Thread_level.t

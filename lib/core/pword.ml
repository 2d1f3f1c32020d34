(** Parallelism words (§2 of the paper).

    For a CFG node [n], the parallelism word [pw(n)] is the sequence of
    parallel constructs and barriers traversed from the beginning of the
    function to [n]:
    - [P i] for a [parallel] region whose [Omp_begin] node has id [i];
    - [S i] for a single-threaded region ([single], [master], or one
      [section] of a [sections] construct);
    - [B] for a thread barrier (explicit, or implicit at region ends).

    A simplification is done when OpenMP regions end: the region's token
    and everything after it is removed from the word.  Worksharing [for],
    [sections] dispatch and [critical] do not change the threading level
    and carry no token.

    Because the thread model has perfectly nested parallelism, the control
    flow has no impact on the word; the computation below still verifies
    this at join points and reports any inconsistency (which the
    {!Minilang.Validate} checks rule out up front).

    The language [L = (S|PB*S)*] describes the words of nodes in
    monothreaded context: ignoring barriers, every [P] must immediately be
    followed by an [S] (no nested parallelism without re-serialisation) and
    the word must not end on a [P]. *)

open Cfg

type token = P of int | S of int | B

type word = token list

let token_to_string = function
  | P i -> Printf.sprintf "P%d" i
  | S i -> Printf.sprintf "S%d" i
  | B -> "B"

let to_string word =
  match word with
  | [] -> "ε"
  | _ -> String.concat "·" (List.map token_to_string word)

let pp ppf w = Fmt.string ppf (to_string w)

let token_equal a b =
  match (a, b) with
  | P i, P j | S i, S j -> Int.equal i j
  | B, B -> true
  | (P _ | S _ | B), _ -> false

(* The fixpoint mostly compares a word with itself or with a physically
   shared suffix: test identity before walking. *)
let rec equal (a : word) (b : word) =
  a == b
  ||
  match (a, b) with
  | x :: a', y :: b' -> token_equal x y && equal a' b'
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

(** Token pushed by entering a region of the given kind, if any. *)
let token_of_region kind id =
  match kind with
  | Graph.Rparallel -> Some (P id)
  | Graph.Rsingle _ | Graph.Rmaster | Graph.Rsection -> Some (S id)
  | Graph.Rfor _ | Graph.Rsections _ | Graph.Rcritical _ -> None

(** Removes the region token [P region]/[S region] and everything after
    it; identity if the region carries no token. *)
let simplify_region_end word ~kind ~region =
  match token_of_region kind region with
  | None -> word
  | Some tok ->
      (* Truncate at the last occurrence of [tok]; a missing token means an
         unbalanced region (ruled out by construction) — keep the word. *)
      let rec last_index i best = function
        | [] -> best
        | t :: rest ->
            last_index (i + 1) (if token_equal t tok then i else best) rest
      in
      let idx = last_index 0 (-1) word in
      if idx < 0 then word else List.filteri (fun i _ -> i < idx) word

(** Effect of traversing node [id]: the word seen by its successors. *)
let node_effect g id word =
  match Graph.kind g id with
  | Graph.Omp_begin { kind; _ } -> (
      match token_of_region kind id with
      | Some tok -> word @ [ tok ]
      | None -> word)
  | Graph.Omp_end { kind; region; _ } -> simplify_region_end word ~kind ~region
  | Graph.Barrier_node _ -> word @ [ B ]
  | Graph.Entry | Graph.Exit | Graph.Simple _ | Graph.Cond _
  | Graph.Collective _ | Graph.Call_site _ | Graph.Return_site _
  | Graph.Check_site _ ->
      word

type inconsistency = {
  node : int;
  word_a : word;
  word_b : word;  (** Two predecessor words that disagree. *)
}

(** Merge of two incoming words at a CFG join.

    A loop whose body crosses a barrier brings back the pre-loop word with
    extra trailing [B]s; a barrier only strengthens ordering, so the words
    agree on the threading structure and the join keeps their longest
    common prefix.  Words differing in [P]/[S] tokens reveal an OpenMP
    construct under non-uniform control flow: the merge fails and the
    analysis reports the inconsistency. *)
let merge w1 w2 =
  if equal w1 w2 then Ok w1
  else
    (* The longest common prefix and the two rests. *)
    let rec lcp a b =
      match (a, b) with
      | x :: a', y :: b' when token_equal x y ->
          let w, r1, r2 = lcp a' b' in
          (x :: w, r1, r2)
      | _ -> ([], a, b)
    in
    let prefix, r1, r2 = lcp w1 w2 in
    let only_barriers = List.for_all (function B -> true | P _ | S _ -> false) in
    if only_barriers r1 && only_barriers r2 then Ok prefix else Error (w1, w2)

type t = {
  graph : Graph.t;
  in_words : word option array;
      (** [pw(n)]: word at node entry; [None] for unreachable nodes. *)
  inconsistencies : inconsistency list;
}

(** Compute [pw] for every reachable node of [g], starting from
    [initial] at the function entrance (the paper's "initial prefix",
    empty by default, selectable to model a multithreaded caller).

    A worklist fixpoint handles loops: the join {!merge} keeps the longest
    common prefix when incoming words differ only by trailing barriers, so
    barrier-crossing loop bodies converge; genuinely conflicting words are
    reported as inconsistencies (and the first word wins).

    [actx], when given, must be the analysis context of [g]: the worklist
    is then seeded with its cached reverse postorder instead of
    retraversing the graph. *)
let compute ?(initial = []) ?actx g =
  let rpo =
    match actx with
    | Some a when Actx.graph a == g -> Actx.rpo a
    | Some _ -> invalid_arg "Pword.compute: actx belongs to a different graph"
    | None -> Traversal.rpo_array g
  in
  let n = Graph.nb_nodes g in
  let in_words = Array.make n None in
  let out_words = Array.make n None in
  let inconsistent = Hashtbl.create 4 in
  let worklist = Queue.create () in
  let queued = Array.make n false in
  let enqueue id =
    if not queued.(id) then begin
      queued.(id) <- true;
      Queue.add id worklist
    end
  in
  Array.iter enqueue rpo;
  while not (Queue.is_empty worklist) do
    let id = Queue.pop worklist in
    queued.(id) <- false;
    let in_word =
      if id = g.Graph.entry then Some initial
      else
        (* Predecessors fold in edge-insertion order, as before the
           packed representation: inconsistency reporting stays
           byte-identical. *)
        Graph.fold_preds g id
          (fun acc p ->
            match (acc, out_words.(p)) with
            | None, w -> w
            | (Some _ as acc), None -> acc
            | Some a, Some w -> (
                match merge a w with
                | Ok m -> Some m
                | Error (wa, wb) ->
                    if not (Hashtbl.mem inconsistent id) then
                      Hashtbl.replace inconsistent id
                        { node = id; word_a = wa; word_b = wb };
                    Some a))
          None
    in
    match in_word with
    | None -> ()
    | Some w ->
        let changed =
          match in_words.(id) with Some old -> not (equal old w) | None -> true
        in
        if changed then begin
          in_words.(id) <- Some w;
          let out = node_effect g id w in
          let out_changed =
            match out_words.(id) with
            | Some old -> not (equal old out)
            | None -> true
          in
          if out_changed then begin
            out_words.(id) <- Some out;
            Graph.iter_succs g id enqueue
          end
        end
  done;
  let inconsistencies =
    Hashtbl.fold (fun _ inc acc -> inc :: acc) inconsistent []
    |> List.sort (fun a b -> Int.compare a.node b.node)
  in
  { graph = g; in_words; inconsistencies }

(** [pw t id] is the parallelism word of node [id].
    @raise Invalid_argument if the node is unreachable. *)
let pw t id =
  match t.in_words.(id) with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Pword.pw: unreachable node %d" id)

let pw_opt t id = t.in_words.(id)

(* ------------------------------------------------------------------ *)
(* The language L = (S|PB*S)*                                          *)
(* ------------------------------------------------------------------ *)

let strip_barriers word =
  List.filter (function B -> false | P _ | S _ -> true) word

(** Membership in [L]: barriers ignored, every [P] immediately followed by
    an [S], and the word must not end with a pending [P]. *)
let in_language word =
  let rec scan = function
    | [] -> true
    | (S _ | B) :: rest -> scan rest
    | P _ :: S _ :: rest -> scan rest
    | P _ :: _ -> false
  in
  (* Barriers are stripped up front, so [B] never follows a pending [P]. *)
  scan (strip_barriers word)

(** A node is in monothreaded context iff its word is in [L]. *)
let monothreaded word = in_language word

let count_barriers word =
  List.length (List.filter (function B -> true | _ -> false) word)

(* ------------------------------------------------------------------ *)
(* Concurrent monothreaded regions (phase 2)                           *)
(* ------------------------------------------------------------------ *)

(** Decomposition used by the paper: [pw(n1) = w·S_j·u] and
    [pw(n2) = w·S_k·v] with [j ≠ k] and [w] the longest common prefix —
    two distinct single-threaded regions opened from the same context,
    with no ordering barrier in between (equal barrier counts). *)
let concurrent w1 w2 =
  let rec split a b =
    match (a, b) with
    | t1 :: r1, t2 :: r2 when t1 = t2 -> split r1 r2
    | S j :: _, S k :: _ -> j <> k
    | _ -> false
  in
  split w1 w2 && count_barriers w1 = count_barriers w2

(** Id of the innermost enclosing tokenful region, used to report which
    parallel construct is responsible. *)
let innermost_region word =
  let rec last acc = function
    | [] -> acc
    | (P i | S i) :: rest -> last (Some i) rest
    | B :: rest -> last acc rest
  in
  last None word

(** The ids of the distinct single-threaded regions where the
    concurrency arises: for words [w·S_j·u] and [w·S_k·v], the pair
    [(j, k)].  Only meaningful when {!concurrent} holds. *)
let concurrent_region_pair w1 w2 =
  let rec split a b =
    match (a, b) with
    | t1 :: r1, t2 :: r2 when t1 = t2 -> split r1 r2
    | S j :: _, S k :: _ when j <> k -> Some (j, k)
    | _ -> None
  in
  split w1 w2

(* ------------------------------------------------------------------ *)
(* Required MPI thread level (phase 1 refinement)                      *)
(* ------------------------------------------------------------------ *)

(** Minimal MPI thread level required by a collective whose parallelism
    word is [word].  [kind_of_region] recovers the construct kind of a
    region id (to distinguish [master] — funneled — from [single] —
    serialized). *)
let required_level ~kind_of_region word =
  let stripped = strip_barriers word in
  if stripped = [] then Mpisim.Thread_level.Single
  else if not (in_language word) then Mpisim.Thread_level.Multiple
  else
    let s_regions =
      List.filter_map (function S i -> Some i | P _ | B -> None) stripped
    in
    let all_master =
      s_regions <> []
      && List.for_all
           (fun i ->
             match kind_of_region i with
             | Some Graph.Rmaster -> true
             | _ -> false)
           s_regions
    in
    if all_master then Mpisim.Thread_level.Funneled
    else Mpisim.Thread_level.Serialized

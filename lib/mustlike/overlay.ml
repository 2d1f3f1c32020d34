(** MUST-style collective matching over a tree-based overlay network
    (Hilbrich et al., EuroMPI 2013 — reference [2] of the paper).

    MUST validates MPI collective usage at run time by streaming each
    process's collective events into a tree of tool processes: every
    internal node compares the signatures coming from its children,
    aggregates equal ones into a single upward message, and flags the
    lowest node that observes a conflict.  A {e centralized} checker à la
    Marmot (reference [1]) is the degenerate overlay whose root is directly
    connected to every application process.

    This module reproduces that architecture over the per-rank traces the
    simulated MPI engine records: it checks that all ranks issued the same
    ordered sequence of collective signatures, localizes the first
    divergence in the tree, and reports the overlay-network cost metrics
    (depth, per-round messages, maximum node fan-in) that motivate trees
    over a central server.  The PARCOACH paper's analyses are "designed to
    be compatible with existing dynamic tools like MUST"; this checker is
    the repository's stand-in for those tools. *)

type event = Mpisim.Engine.trace_event

(** An overlay tree over [nranks] leaves with internal fan-out [fanout].
    Nodes are numbered in layers: layer 0 is the leaves (one per rank). *)
type tree = {
  fanout : int;
  nranks : int;
  layers : int array array;
      (** [layers.(l)] holds, for each node of layer [l], the index of its
          parent in layer [l+1]; the last layer is the root. *)
}

let build_tree ~fanout ~nranks =
  if fanout < 2 then invalid_arg "Overlay.build_tree: fanout must be >= 2";
  if nranks <= 0 then invalid_arg "Overlay.build_tree: nranks must be positive";
  let rec layers acc width =
    if width = 1 then List.rev acc
    else
      let parents = Array.init width (fun i -> i / fanout) in
      let next = ((width - 1) / fanout) + 1 in
      layers (parents :: acc) next
  in
  let layers =
    if nranks = 1 then [ [| 0 |] ] else layers [] nranks
  in
  { fanout; nranks; layers = Array.of_list layers }

(** Number of layers above the leaves (0 for a single rank): the latency
    of one checking round. *)
let depth tree = Array.length tree.layers

(** Maximum fan-in over the internal nodes: the load of the busiest tool
    process per round.  A centralized (Marmot-like) checker has fan-in
    [nranks]; a binary tree has fan-in 2. *)
let max_fan_in tree =
  Array.fold_left
    (fun acc parents ->
      let counts = Array.make (Array.length parents) 0 in
      Array.fold_left
        (fun acc p ->
          counts.(p) <- counts.(p) + 1;
          max acc counts.(p))
        acc parents)
    0 tree.layers

(** Messages of a round on which every rank agrees: each node below the
    root sends one (aggregated) signature to its parent. *)
let full_round_messages tree =
  Array.fold_left (fun acc layer -> acc + Array.length layer) 0 tree.layers

(* Groups the elements of [items] (node_index, value) by parent according
   to [parents]; returns per-parent value lists in node order. *)
let group_by_parent parents items =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (idx, v) ->
      let p = parents.(idx) in
      let existing = Option.value ~default:[] (Hashtbl.find_opt tbl p) in
      Hashtbl.replace tbl p (v :: existing))
    items;
  Hashtbl.fold (fun p vs acc -> (p, List.rev vs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

type divergence = {
  position : int;  (** 0-based index in the per-rank event streams. *)
  layer : int;  (** Overlay layer at which the conflict was detected. *)
  node : int;  (** Node index within that layer. *)
  groups : (string * int list) list;
      (** Conflicting signature descriptions with the ranks holding them;
          ranks whose stream ended early appear under ["<no event>"]. *)
}

type report = {
  verdict : [ `Match of int | `Divergence of divergence ];
      (** [`Match n]: all ranks agree on [n] collective rounds. *)
  rounds : int;  (** Checking rounds executed (including a failing one). *)
  messages : int;  (** Total overlay messages exchanged. *)
  tree_depth : int;
  tree_max_fan_in : int;
}

let signature_string = function
  | None -> "<no event>"
  | Some (e : event) ->
      Mpisim.Coll.signature_to_string e.Mpisim.Engine.signature

(* One overlay reduction over per-leaf contributions
   [(node index, (signature description, ranks))] at stream position
   [pos]: ascend layer by layer, merging equal signatures and localizing
   the first conflicting node.  Returns the messages used and either the
   agreed signature or the localized divergence.  This is the shared
   core: both checkers find the first disagreeing round cheaply (the
   post-hoc one structurally, the streaming one ({!Stream}) on interned
   ids) and run it only on that round, so both produce identical
   reports. *)
let reduce_round tree ~pos initial =
  let messages = ref 0 in
  let rec ascend layer items =
    if layer >= Array.length tree.layers then
      (* Root reached with a single aggregated signature. *)
      match items with
      | [ (_, (s, _)) ] -> Ok s
      | _ -> assert false
    else
      let parents = tree.layers.(layer) in
      let grouped = group_by_parent parents items in
      let next_items = ref [] in
      let conflict = ref None in
      List.iter
        (fun (parent, contributions) ->
          messages := !messages + List.length contributions;
          (* Merge contributions with equal signatures.  Accumulate with
             reversed prepends and sort once below: the final rank lists
             are sorted anyway, and [existing @ ranks] here was quadratic
             in the subtree size on wide (central-topology) nodes. *)
          let merged = Hashtbl.create 4 in
          List.iter
            (fun (s, ranks) ->
              let existing =
                Option.value ~default:[] (Hashtbl.find_opt merged s)
              in
              Hashtbl.replace merged s (List.rev_append ranks existing))
            contributions;
          let distinct =
            Hashtbl.fold (fun s ranks acc -> (s, List.sort Int.compare ranks) :: acc) merged []
            |> List.sort compare
          in
          match distinct with
          | [ (s, ranks) ] -> next_items := (parent, (s, ranks)) :: !next_items
          | _ ->
              if !conflict = None then
                conflict := Some { position = pos; layer; node = parent; groups = distinct })
        grouped;
      match !conflict with
      | Some d -> Error d
      | None -> ascend (layer + 1) (List.rev !next_items)
  in
  let result = ascend 0 initial in
  (result, !messages)

(* Structural signature equality.  Signature descriptions are
   injective, so this agrees with comparing them as strings. *)
let same_signature ((k, o, r) : Mpisim.Coll.Intern.signature) (k', o', r') =
  k = k' && Option.equal ( = ) o o' && Option.equal Int.equal r r'

(* Whether every rank holds an event at stream position [pos] and all of
   them carry rank 0's signature. *)
let round_agrees (traces : event array array) pos =
  let t0 = traces.(0) in
  pos < Array.length t0
  &&
  let s = t0.(pos).Mpisim.Engine.signature in
  let rec from r =
    r >= Array.length traces
    ||
    let tr = traces.(r) in
    pos < Array.length tr
    && same_signature s tr.(pos).Mpisim.Engine.signature
    && from (r + 1)
  in
  from 1

(* The reduction of a disagreeing round at stream position [pos]: each
   leaf contributes its pos-th event (<no event> if exhausted). *)
let locate_round tree (traces : event array array) pos =
  let initial =
    List.init tree.nranks (fun rank ->
        let tr = traces.(rank) in
        let v = if pos < Array.length tr then Some tr.(pos) else None in
        (rank, (signature_string v, [ rank ])))
  in
  match reduce_round tree ~pos initial with
  | Ok _, _ -> assert false (* the signatures disagreed *)
  | Error d, msgs -> (d, msgs)

(** Check per-rank traces against each other over the overlay.

    All ranks must present the same signature at every stream position;
    the first position where they do not (including streams of different
    lengths) is reported with the overlay node that detected it.  Rounds
    on which every rank agrees are compared structurally and cost
    {!full_round_messages}; only the first disagreeing round renders
    signatures and runs {!reduce_round}, as the streaming checker does. *)
let check ?(fanout = 2) (traces : event list array) =
  let nranks = Array.length traces in
  let tree = build_tree ~fanout ~nranks in
  let traces = Array.map Array.of_list traces in
  let max_len = Array.fold_left (fun acc t -> max acc (Array.length t)) 0 traces in
  let full = full_round_messages tree in
  let report verdict rounds messages =
    {
      verdict;
      rounds;
      messages;
      tree_depth = depth tree;
      tree_max_fan_in = max_fan_in tree;
    }
  in
  let rec run pos =
    if pos >= max_len then report (`Match max_len) max_len (pos * full)
    else if round_agrees traces pos then run (pos + 1)
    else
      let d, msgs = locate_round tree traces pos in
      report (`Divergence d) (pos + 1) ((pos * full) + msgs)
  in
  run 0

(** Post-mortem check of everything a simulated MPI engine recorded. *)
let check_engine ?fanout engine =
  check ?fanout (Mpisim.Engine.all_traces engine)

let pp_report ppf r =
  (match r.verdict with
  | `Match n -> Fmt.pf ppf "match: %d collective round(s) consistent" n
  | `Divergence d ->
      Fmt.pf ppf
        "divergence at round %d (overlay layer %d, node %d):@\n%a" d.position
        d.layer d.node
        (Fmt.list ~sep:Fmt.cut (fun ppf (s, ranks) ->
             Fmt.pf ppf "  %s from rank(s) %a" s
               (Fmt.list ~sep:Fmt.comma Fmt.int)
               ranks))
        d.groups);
  Fmt.pf ppf "@\noverlay: depth %d, max fan-in %d, %d message(s), %d round(s)"
    r.tree_depth r.tree_max_fan_in r.messages r.rounds

let report_to_string r = Fmt.str "%a" pp_report r

let is_match r = match r.verdict with `Match _ -> true | `Divergence _ -> false

(** Phase 3 of the static analysis: all MPI processes must execute the same
    sequence of collectives (Algorithm 1 of the PARCOACH IJHPCA'14 paper).

    For each collective name [c], let [S_c] be the set of CFG nodes calling
    [c].  The iterated post-dominance frontier [PDF+(S_c)] contains exactly
    the branch nodes on which the execution (number/order of executions) of
    [c] is control-dependent.  If processes evaluate such a condition
    differently — which an optional rank-taint filter can restrict to
    conditions data-dependent on [rank()] — they may execute different
    collective sequences: a warning is issued and runtime [CC] checks are
    scheduled at the involved call sites.

    The execution-order refinement groups call sites of the same name by
    their {e collective depth} (the longest-path count of collective nodes
    from the entry), so that two calls to the same collective at different
    sequence positions are checked independently. *)

open Cfg

type cls = {
  name : string;  (** Collective name, e.g. ["MPI_Allreduce"]. *)
  depth : int;  (** Sequence position class. *)
  nodes : int list;  (** Call sites in the class. *)
  conds : int list;  (** Conditional nodes of [PDF+] (after filtering). *)
}

type result = {
  classes : cls list;  (** Every class, including clean ones. *)
  flagged : cls list;  (** Classes with a non-empty [conds]. *)
}

(** Longest-path collective depth of every node: number of collective (or
    pseudo-collective) nodes on the longest entry path, computed on the
    acyclic condensation — loops are cut by ignoring back edges.  [actx],
    when given, supplies the cached reverse postorder. *)
let collective_depths ?(is_site = fun _ -> false) ?actx g =
  let n = Graph.nb_nodes g in
  let depth = Array.make n 0 in
  let rpo =
    match actx with Some a -> Actx.rpo a | None -> Traversal.rpo_array g
  in
  let index = Array.make n (-1) in
  Array.iteri (fun i id -> index.(id) <- i) rpo;
  Array.iter
    (fun id ->
      let here =
        match Graph.kind g id with
        | Graph.Collective _ -> 1
        | _ -> if is_site id then 1 else 0
      in
      let best =
        Graph.fold_preds g id
          (fun acc p ->
            (* Ignore back edges (preds later in RPO). *)
            if index.(p) >= 0 && index.(p) < index.(id) then
              max acc depth.(p)
            else acc)
          0
      in
      depth.(id) <- best + here)
    rpo;
  depth

let is_cond g id =
  match Graph.kind g id with Graph.Cond _ -> true | _ -> false

(** [analyze g ~taint_filter ~params] runs Algorithm 1 on the CFG [g] of a
    function with parameter list [params].  With [taint_filter:true], only
    conditions that may be rank-dependent (per {!Cfg.Dataflow.rank_taint})
    are retained in [PDF+] — fewer false positives, at the cost of trusting
    the taint analysis.

    [call_collects], when provided, enables the interprocedural extension:
    call sites whose callee may (transitively) execute a collective are
    treated as pseudo-collective sites named ["call:<fname>"], so a
    rank-dependent branch around such a call is flagged too.

    [actx], when given, must be the analysis context of [g]: the
    post-dominator tree, its frontiers, the reverse postorder and the
    rank-taint predicate are then taken from (and cached in) the context
    instead of being recomputed here.  A function with no collective and
    no collecting call site has no class and builds none of them; the
    taint is computed only once some [PDF+] holds a conditional. *)
let analyze ?call_collects ?actx g ~taint_filter ~params =
  let actx =
    match actx with
    | Some a when not (Actx.graph a == g) ->
        invalid_arg "Interproc.analyze: actx belongs to a different graph"
    | Some a -> a
    | None -> Actx.create g
  in
  let is_call_site id =
    match (call_collects, Graph.kind g id) with
    | Some collects, Graph.Call_site { fname; _ } -> collects fname
    | _ -> false
  in
  let call_sites =
    Graph.fold_nodes g
      (fun acc n -> if is_call_site n.Graph.id then n.Graph.id :: acc else acc)
      []
    |> List.rev
  in
  let collectives = Graph.collective_nodes g in
  if collectives = [] && call_sites = [] then { classes = []; flagged = [] }
  else
  let depths = collective_depths ~is_site:is_call_site ~actx g in
  let by_class = Hashtbl.create 16 in
  let add key id =
    let existing = Option.value ~default:[] (Hashtbl.find_opt by_class key) in
    Hashtbl.replace by_class key (id :: existing)
  in
  List.iter
    (fun id ->
      match Graph.kind g id with
      | Graph.Collective { coll; _ } ->
          add (Minilang.Ast.collective_name coll, depths.(id)) id
      | _ -> ())
    collectives;
  List.iter
    (fun id ->
      match Graph.kind g id with
      | Graph.Call_site { fname; _ } ->
          add (Callgraph.call_site_name fname, depths.(id)) id
      | _ -> ())
    call_sites;
  (* Forced by the first conditional some class's PDF+ holds: a
     function whose frontiers hold none never pays for the taint. *)
  let taint = lazy (Actx.rank_dependent actx ~params) in
  let rank_dependent id = (not taint_filter) || Lazy.force taint id in
  (* The post-dominator tree and frontiers live in the context: shared by
     every class here, and with every other phase of the pipeline. *)
  let classes =
    Hashtbl.fold
      (fun (name, depth) nodes acc ->
        let nodes = List.sort Int.compare nodes in
        let pdf = Actx.pdf_plus actx nodes in
        let conds =
          List.filter (fun id -> is_cond g id && rank_dependent id) pdf
        in
        { name; depth; nodes; conds } :: acc)
      by_class []
    |> List.sort (fun a b ->
           let c = Int.compare a.depth b.depth in
           if c <> 0 then c else String.compare a.name b.name)
  in
  let flagged = List.filter (fun c -> c.conds <> []) classes in
  { classes; flagged }

let warnings g ~fname result =
  List.map
    (fun c ->
      let sites = List.map (Graph.node_loc g) c.nodes in
      let conds = List.map (Graph.node_loc g) c.conds in
      {
        Warning.kind = Warning.Collective_mismatch { coll = c.name; sites; conds };
        func = fname;
        loc = (match sites with s :: _ -> s | [] -> Minilang.Loc.none);
      })
    result.flagged

(** Call sites needing a dynamic [CC] check: all nodes of flagged
    classes. *)
let cc_sites result =
  List.sort_uniq Int.compare (List.concat_map (fun c -> c.nodes) result.flagged)

(** Structural invariants of well-formed CFGs, used by the test suite
    (including on randomly generated programs) to guard the graph
    construction and every pass that consumes it. *)

open Graph

(** All violated invariants of [g], as human-readable strings (empty for a
    well-formed graph):
    - successor/predecessor lists are symmetric;
    - the entry has no predecessors, the exit no successors;
    - [Cond] nodes have exactly two successors, non-branching interior
      nodes exactly one;
    - every [Omp_end] names an [Omp_begin] of the same region kind;
    - regions are balanced: each tokenful begin has exactly one end;
    - implicit [Barrier_node]s appear exactly where {!Build} promises:
      as the unique successor of the [Omp_end] of a [parallel] region or
      of a non-[nowait] [single]/[for]/[sections] region, and nowhere
      else;
    - every reachable node can reach the exit. *)
let region_has_implicit_barrier = function
  | Rparallel -> true
  | Rsingle { nowait } | Rfor { nowait } | Rsections { nowait } -> not nowait
  | Rmaster | Rcritical _ | Rsection -> false

let check g =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  iter_nodes g (fun n ->
      List.iter
        (fun s ->
          if not (List.mem n.id (preds g s)) then
            add "edge %d->%d missing from preds" n.id s)
        (succs g n.id);
      List.iter
        (fun p ->
          if not (List.mem n.id (succs g p)) then
            add "edge %d->%d missing from succs" p n.id)
        (preds g n.id));
  if preds g g.entry <> [] then add "entry has predecessors";
  if succs g g.exit <> [] then add "exit has successors";
  let reach = Traversal.reachable g in
  iter_nodes g (fun n ->
      if reach.(n.id) then begin
        let degree = out_degree g n.id in
        (match n.kind with
        | Cond _ ->
            if degree <> 2 then add "cond %d has %d successors" n.id degree
        | Exit -> ()
        | Omp_begin { kind = Rsections _; _ } ->
            if degree = 0 then add "sections dispatch %d has no successors" n.id
        | Entry | Simple _ | Collective _ | Call_site _ | Return_site _
        | Omp_begin _ | Omp_end _ | Barrier_node _ | Check_site _ ->
            if degree <> 1 then
              add "interior node %d has %d successors" n.id degree);
        if n.id <> g.exit && not (Traversal.path_exists g n.id g.exit) then
          add "node %d cannot reach the exit" n.id
      end);
  iter_nodes g (fun n ->
      match n.kind with
      | Omp_end { region; kind; _ } -> (
          match Graph.kind g region with
          | Omp_begin { kind = bkind; _ } ->
              if region_kind_name bkind <> region_kind_name kind then
                add "omp_end %d kind mismatch with begin %d" n.id region
          | _ -> add "omp_end %d region %d is not a begin" n.id region)
      | _ -> ());
  (* Implicit-barrier placement: each barrier-bearing region end is
     followed by exactly its implicit barrier, and every implicit
     barrier sits right after such an end. *)
  iter_nodes g (fun n ->
      match n.kind with
      | Omp_end { kind; _ } -> (
          let bars =
            List.filter
              (fun s ->
                match Graph.kind g s with
                | Barrier_node { implicit = true; _ } -> true
                | _ -> false)
              (succs g n.id)
          in
          match (region_has_implicit_barrier kind, bars) with
          | true, [ _ ] | false, [] -> ()
          | true, _ ->
              add "omp_end %d (%s) lacks its implicit barrier" n.id
                (region_kind_name kind)
          | false, _ ->
              add "omp_end %d (%s) is followed by an implicit barrier" n.id
                (region_kind_name kind))
      | Barrier_node { implicit = true; _ } -> (
          match preds g n.id with
          | [ p ] -> (
              match Graph.kind g p with
              | Omp_end { kind; _ } when region_has_implicit_barrier kind -> ()
              | _ ->
                  add "implicit barrier %d does not follow a barrier-bearing \
                       omp_end"
                    n.id)
          | ps ->
              add "implicit barrier %d has %d predecessors" n.id
                (List.length ps))
      | _ -> ());
  (* Region balance: one end per begin. *)
  iter_nodes g (fun n ->
      match n.kind with
      | Omp_begin _ ->
          let ends =
            filter_nodes g (function
              | Omp_end { region; _ } -> region = n.id
              | _ -> false)
          in
          if List.length ends <> 1 then
            add "begin %d has %d matching ends" n.id (List.length ends)
      | _ -> ());
  List.rev !violations


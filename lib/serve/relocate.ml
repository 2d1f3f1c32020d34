(** Rewrites cached warning locations onto the fresh source layout (see
    the interface). *)

open Minilang

let locs_of (f : Ast.func) =
  f.Ast.floc :: List.map (fun s -> s.Ast.sloc) (Ast.stmts_of_func f)

let reloc_kind reloc (k : Parcoach.Warning.kind) =
  match k with
  | Parcoach.Warning.Multithreaded_collective _
  | Parcoach.Warning.Level_insufficient _
  | Parcoach.Warning.Word_inconsistency _ ->
      k
  | Parcoach.Warning.Concurrent_collectives c ->
      Parcoach.Warning.Concurrent_collectives
        { c with loc1 = reloc c.loc1; loc2 = reloc c.loc2 }
  | Parcoach.Warning.Collective_mismatch m ->
      Parcoach.Warning.Collective_mismatch
        {
          m with
          sites = List.map reloc m.sites;
          conds = List.map reloc m.conds;
        }
  | Parcoach.Warning.Data_race r ->
      Parcoach.Warning.Data_race
        { r with loc1 = reloc r.loc1; loc2 = reloc r.loc2 }
  | Parcoach.Warning.Request_leak l ->
      Parcoach.Warning.Request_leak
        { l with started = List.map reloc l.started }
  | Parcoach.Warning.Request_double_wait d ->
      Parcoach.Warning.Request_double_wait
        { d with prior = List.map reloc d.prior }
  | Parcoach.Warning.Request_stale_buffer s ->
      Parcoach.Warning.Request_stale_buffer
        { s with started = List.map reloc s.started }
  | Parcoach.Warning.Request_completion_mismatch m ->
      Parcoach.Warning.Request_completion_mismatch
        {
          m with
          sites = List.map reloc m.sites;
          conds = List.map reloc m.conds;
        }

let func_report ~cached ~fresh (fr : Parcoach.Driver.func_report) =
  if not (Ast.equal_func cached fresh) then None
  else
    match fr.Parcoach.Driver.warnings with
    | [] -> Some fr
    | warnings ->
        let old_locs = locs_of cached and new_locs = locs_of fresh in
        if List.for_all2 Loc.equal old_locs new_locs then Some fr
        else begin
          let map = Hashtbl.create (List.length old_locs) in
          (* First binding wins: statements sharing a location
             (builder-made code) map consistently because both lists are
             in source order. *)
          List.iter2
            (fun o n -> if not (Hashtbl.mem map o) then Hashtbl.add map o n)
            old_locs new_locs;
          let reloc l = Option.value ~default:l (Hashtbl.find_opt map l) in
          let warnings =
            List.sort_uniq
              (fun a b ->
                let c = Parcoach.Warning.compare a b in
                if c <> 0 then c else Stdlib.compare a b)
              (List.map
                 (fun (w : Parcoach.Warning.t) ->
                   {
                     w with
                     Parcoach.Warning.loc = reloc w.Parcoach.Warning.loc;
                     kind = reloc_kind reloc w.Parcoach.Warning.kind;
                   })
                 warnings)
          in
          Some { fr with Parcoach.Driver.warnings }
        end

(** Natural-loop detection (back edges to a dominator, plus the classic
    body construction).  Used for reporting and for sizing statistics in the
    compilation pipeline. *)

open Graph

type loop = {
  header : int;
  back_edges : (int * int) list;  (** (tail, header) pairs. *)
  body : int list;  (** Node ids of the loop body, header included. *)
}

(** All natural loops of [g], grouped by header, headers in increasing
    order. *)
let detect g =
  let dom = Dominance.compute g Dominance.Forward in
  let back_edges = ref [] in
  iter_nodes g (fun n ->
      iter_succs g n.id (fun s ->
          if Dominance.dominates dom s n.id then
            back_edges := (n.id, s) :: !back_edges));
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (tail, header) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_header header) in
      Hashtbl.replace by_header header ((tail, header) :: existing))
    !back_edges;
  let body_of header edges =
    let in_body = Hashtbl.create 16 in
    Hashtbl.replace in_body header ();
    let stack = ref [] in
    List.iter
      (fun (tail, _) ->
        if not (Hashtbl.mem in_body tail) then begin
          Hashtbl.replace in_body tail ();
          stack := tail :: !stack
        end)
      edges;
    let rec drain () =
      match !stack with
      | [] -> ()
      | id :: rest ->
          stack := rest;
          iter_preds g id (fun p ->
              if not (Hashtbl.mem in_body p) then begin
                Hashtbl.replace in_body p ();
                stack := p :: !stack
              end);
          drain ()
    in
    drain ();
    List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) in_body [])
  in
  Hashtbl.fold
    (fun header edges acc ->
      { header; back_edges = edges; body = body_of header edges } :: acc)
    by_header []
  |> List.sort (fun a b -> Int.compare a.header b.header)

(** Graphviz (DOT) export of CFGs, for debugging and documentation.
    Collective nodes are highlighted, OpenMP region nodes are boxed, and an
    optional node annotation (e.g. the parallelism word) can be attached. *)

open Graph

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(** [to_dot ?annot g] renders [g]; [annot id] may return an extra line for
    the node label. *)
let to_dot ?(annot = fun _ -> None) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" g.fname);
  Buffer.add_string buf "  node [fontname=\"monospace\"];\n";
  iter_nodes g (fun n ->
      let label = kind_label g n.id in
      let label =
        match annot n.id with
        | Some extra -> label ^ "\\n" ^ extra
        | None -> label
      in
      let shape, style =
        match n.kind with
        | Entry | Exit -> ("oval", ", style=bold")
        | Collective _ -> ("box", ", style=filled, fillcolor=lightsalmon")
        | Omp_begin _ | Omp_end _ -> ("box", ", style=filled, fillcolor=lightblue")
        | Barrier_node _ -> ("box", ", style=filled, fillcolor=lightgray")
        | Cond _ -> ("diamond", "")
        | Check_site _ -> ("box", ", style=filled, fillcolor=palegreen")
        | Simple _ | Call_site _ | Return_site _ -> ("box", "")
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%d: %s\", shape=%s%s];\n" n.id n.id
           (escape label) shape style));
  iter_nodes g (fun n ->
      List.iteri
        (fun i s ->
          let attr =
            match n.kind with
            | Cond _ when i = 0 -> " [label=\"T\"]"
            | Cond _ -> " [label=\"F\"]"
            | _ -> ""
          in
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" n.id s attr))
        (succs g n.id));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

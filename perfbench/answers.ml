(* Known-answer files (perfbench/answers/*.txt).  Each non-comment line
   is three tab-separated fields: an input key, a check and its
   argument.  The answers are written from what each generator plants or
   each input documents, never from the analyzer's output. *)

type t = (string * (string * string)) list

let load file : t =
  let path = Filename.concat "perfbench/answers" file in
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char '\t' line with
           | [ key; check; arg ] -> Some (key, (check, arg))
           | _ -> Fmt.failwith "%s: malformed answer line %S" path line)

let find (t : t) key =
  List.filter_map (fun (k, v) -> if String.equal k key then Some v else None) t

(* [find] that insists on at least one answer: every input the benchmark
   checks has a pinned verdict. *)
let require t key =
  match find t key with
  | [] -> Fmt.failwith "no known answer for %s" key
  | answers -> answers

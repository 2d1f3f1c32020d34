open Minilang

type chunk = { text : string; line : int; col : int }
type split = { clean : bool; chunks : chunk list }

let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

(* The keyword [func] as a whole word at [i]. *)
let func_at source n i =
  i + 4 <= n
  && String.unsafe_get source (i + 1) = 'u'
  && String.unsafe_get source (i + 2) = 'n'
  && String.unsafe_get source (i + 3) = 'c'
  && (i + 4 = n || not (is_ident (String.unsafe_get source (i + 4))))
  && (i = 0 || not (is_ident (String.unsafe_get source (i - 1))))

(* Inside a function body only braces, comment starts and newlines
   matter; [body_stop] marks those bytes so the scan skips the rest in a
   tight loop. *)
let body_stop =
  String.init 256 (fun c ->
      match Char.chr c with '{' | '}' | '/' | '\n' -> '\001' | _ -> '\000')

(* One index loop.  The grammar has no string literals, so the only
   lexical islands are the two comment forms; outside them every
   '{'/'}' is a real brace.  A top-level function necessarily starts
   with the keyword [func] at brace depth 0.  Lines are counted only at
   '\n' (with [bol] the offset just past the last one), so a boundary's
   column is [offset - bol + 1]. *)
let split source =
  let n = String.length source in
  let boundaries = ref [] in
  (* (offset, line, col), reversed *)
  let clean = ref true in
  let depth = ref 0 in
  let line = ref 1 and bol = ref 0 in
  let i = ref 0 in
  while !i < n do
    if !depth > 0 then
      while
        !i < n
        && String.unsafe_get body_stop
             (Char.code (String.unsafe_get source !i))
           = '\000'
      do
        incr i
      done;
    if !i < n then begin
      match String.unsafe_get source !i with
      | '\n' ->
          incr line;
          incr i;
          bol := !i
      | '/' when !i + 1 < n && String.unsafe_get source (!i + 1) = '/' -> (
          (* line comment: resume at its newline *)
          match String.index_from_opt source (!i + 2) '\n' with
          | Some j -> i := j
          | None -> i := n)
      | '/' when !i + 1 < n && String.unsafe_get source (!i + 1) = '*' ->
          let j = ref (!i + 2) and closed = ref false in
          while (not !closed) && !j < n do
            match String.unsafe_get source !j with
            | '*' when !j + 1 < n && String.unsafe_get source (!j + 1) = '/' ->
                j := !j + 2;
                closed := true
            | '\n' ->
                incr line;
                incr j;
                bol := !j
            | _ -> incr j
          done;
          if not !closed then clean := false;
          i := !j
      | '{' ->
          incr depth;
          incr i
      | '}' ->
          decr depth;
          if !depth < 0 then clean := false;
          incr i
      | 'f' when !depth = 0 && func_at source n !i ->
          boundaries := (!i, !line, !i - !bol + 1) :: !boundaries;
          i := !i + 4
      | ' ' | '\t' | '\r' -> incr i
      | _ ->
          (* Anything but whitespace at depth 0 outside a function chunk is
             not ours to slice (stray tokens before the first [func], or
             after a closing brace): fall back to the whole-file parser so
             its error reporting stands. *)
          if !depth = 0 && !boundaries = [] then clean := false;
          incr i
    end
  done;
  if !depth <> 0 then clean := false;
  let rec cut acc stop = function
    | [] -> acc
    | (off, line, col) :: rest ->
        let text = String.sub source off (stop - off) in
        cut ({ text; line; col } :: acc) off rest
  in
  { clean = !clean && !boundaries <> []; chunks = cut [] n !boundaries }

let shift_func ~file ~line ~col f =
  let line0 = line and col0 = col in
  let reloc (l : Loc.t) =
    if Loc.is_none l then l
    else if l.line = 1 then { Loc.file; line = line0; col = l.col + col0 - 1 }
    else { Loc.file; line = l.line + line0 - 1; col = l.col }
  in
  let f =
    Ast.map_blocks
      (List.map (fun (s : Ast.stmt) -> { s with sloc = reloc s.sloc }))
      f
  in
  { f with floc = reloc f.floc }

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

(* Where one run of the scan ended. *)
type scan = {
  bounds : (int * int * int) list;
      (* (offset, line, col) of each boundary found, the last first *)
  ok : bool;  (* no stray token, no unterminated comment, depth never < 0 *)
  pos : int;  (* [stop], or past it when a comment ran over it *)
  depth : int;
  line : int;  (* the line of [pos] *)
}

(* One index loop from [from] up to [stop], entered at brace depth 0
   outside any comment, on line [line] starting at offset [bol]; [seen]
   tells whether a boundary lies before [from].  The grammar has no
   string literals, so the only lexical islands are the two comment
   forms; outside them every '{'/'}' is a real brace.  A top-level
   function necessarily starts with the keyword [func] at brace depth 0.
   Lines are counted only at '\n' (with [bol] the offset just past the
   last one), so a boundary's column is [offset - bol + 1].  A decision
   at offset [i] reads no byte past [i + 4]. *)
let scan source ~from ~line ~bol ~seen ~stop =
  let n = String.length source in
  let boundaries = ref [] in
  let ok = ref true and seen = ref seen in
  let depth = ref 0 in
  let line = ref line and bol = ref bol in
  let i = ref from in
  while !i < stop do
    if !depth > 0 then
      while
        !i < stop
        && String.unsafe_get body_stop
             (Char.code (String.unsafe_get source !i))
           = '\000'
      do
        incr i
      done;
    if !i < stop then begin
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
          if not !closed then ok := false;
          i := !j
      | '{' ->
          incr depth;
          incr i
      | '}' ->
          decr depth;
          if !depth < 0 then ok := false;
          incr i
      | 'f' when !depth = 0 && func_at source n !i ->
          boundaries := (!i, !line, !i - !bol + 1) :: !boundaries;
          seen := true;
          i := !i + 4
      | ' ' | '\t' | '\r' -> incr i
      | _ ->
          (* Anything but whitespace at depth 0 outside a function chunk is
             not ours to slice (stray tokens before the first [func], or
             after a closing brace): fall back to the whole-file parser so
             its error reporting stands. *)
          if !depth = 0 && not !seen then ok := false;
          incr i
    end
  done;
  { bounds = !boundaries; ok = !ok; pos = !i; depth = !depth; line = !line }

(* The chunks between the boundaries [bounds] (the last first), the last
   one ending at [stop], in source order. *)
let cut source ~stop bounds =
  let rec go acc stop = function
    | [] -> acc
    | (off, line, col) :: rest ->
        let text = String.sub source off (stop - off) in
        go ((off, { text; line; col }) :: acc) off rest
  in
  go [] stop bounds

let split source =
  let n = String.length source in
  let s = scan source ~from:0 ~line:1 ~bol:0 ~seen:false ~stop:n in
  {
    clean = s.ok && s.depth = 0 && s.bounds <> [];
    chunks = List.map snd (cut source ~stop:n s.bounds);
  }

(* ------------------------------------------------------------------ *)
(* Incremental re-split                                                *)
(* ------------------------------------------------------------------ *)

type 'a span = { off : int; line : int; col : int; data : 'a }
type 'a layout = { source : string; spans : 'a span array }

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* The length of the longest common prefix of [a] and [b], at most
   [limit] (at most both lengths), compared eight bytes at a time. *)
let common_prefix a b limit =
  let i = ref 0 in
  while !i + 8 <= limit && (get64u a !i : int64) = get64u b !i do
    i := !i + 8
  done;
  while !i < limit && String.unsafe_get a !i = String.unsafe_get b !i do
    incr i
  done;
  !i

(* The same for the longest common suffix. *)
let common_suffix a b limit =
  let na = String.length a and nb = String.length b in
  let k = ref 0 in
  while
    !k + 8 <= limit
    && (get64u a (na - !k - 8) : int64) = get64u b (nb - !k - 8)
  do
    k := !k + 8
  done;
  while
    !k < limit
    && String.unsafe_get a (na - !k - 1) = String.unsafe_get b (nb - !k - 1)
  do
    incr k
  done;
  !k

(* The scan state at every boundary of a clean split is the same: depth
   0, outside any comment, at the top of the loop.  A decision reads no
   byte more than 4 past its offset, so the state at a boundary [b]
   depends only on the bytes before [b + 5]: a chunk whose end boundary
   plus 5 bytes lies in the common prefix is unchanged.  From the back,
   a chunk whose preceding newline lies in the common suffix starts at
   the same column; if the scan of the middle reaches its start exactly,
   at depth 0 and outside a comment, it finds the boundary there and
   continues exactly as the old scan did, every line moved by the same
   count.  Only the middle is scanned.  Without [prev] the middle is the
   whole source: that is [split]. *)
let rec resplit ?prev ~fresh ~moved source =
  match prev with
  | Some p when String.equal p.source source -> Some p
  | _ -> (
      let old, spans =
        match prev with Some p -> (p.source, p.spans) | None -> ("", [||])
      in
      let n = String.length source and on = String.length old in
      let limit = min n on in
      let pre = common_prefix old source limit in
      let suf = common_suffix old source (limit - pre) in
      let nsp = Array.length spans in
      (* Chunks [0, k) are carried from the front ... *)
      let k = ref 0 in
      while !k + 1 < nsp && spans.(!k + 1).off + 5 <= pre do
        incr k
      done;
      let k = !k in
      (* ... and chunks [m, nsp) from the back. *)
      let m = ref nsp in
      while
        !m > k
        &&
        let sp = spans.(!m - 1) in
        let nl = sp.off - sp.col in
        nl >= 0 && nl >= on - suf
      do
        decr m
      done;
      let m = !m in
      let delta = n - on in
      let stop = if m = nsp then n else spans.(m).off + delta in
      let s =
        if k = 0 then scan source ~from:0 ~line:1 ~bol:0 ~seen:false ~stop
        else
          let sp = spans.(k) in
          scan source ~from:sp.off ~line:sp.line ~bol:(sp.off - sp.col + 1)
            ~seen:true ~stop
      in
      match s with
      | { ok = true; depth = 0; pos; _ }
        when pos = stop && (k > 0 || m < nsp || s.bounds <> []) ->
          let middle =
            Array.of_list
              (List.map
                 (fun (off, (c : chunk)) ->
                   { off; line = c.line; col = c.col; data = fresh c })
                 (cut source ~stop s.bounds))
          in
          let nmid = Array.length middle in
          let dline = if m = nsp then 0 else s.line - spans.(m).line in
          let carried sp =
            if delta = 0 && dline = 0 then sp
            else
              let sp =
                { sp with off = sp.off + delta; line = sp.line + dline }
              in
              if dline = 0 then sp else { sp with data = moved sp }
          in
          Some
            {
              source;
              spans =
                Array.init
                  (k + nmid + nsp - m)
                  (fun i ->
                    if i < k then spans.(i)
                    else if i < k + nmid then middle.(i - k)
                    else carried spans.(m + i - k - nmid));
            }
      | _ when Option.is_some prev -> resplit ~fresh ~moved source
      | _ -> None)

let shift_loc ~file ~line ~col (l : Loc.t) =
  if Loc.is_none l then l
  else if l.line = 1 then { Loc.file; line; col = l.col + col - 1 }
  else { Loc.file; line = l.line + line - 1; col = l.col }

let shift_func ~file ~line ~col f =
  let reloc = shift_loc ~file ~line ~col in
  let f =
    Ast.map_blocks
      (List.map (fun (s : Ast.stmt) -> { s with sloc = reloc s.sloc }))
      f
  in
  { f with floc = reloc f.floc }

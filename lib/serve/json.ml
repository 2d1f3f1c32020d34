(** Minimal JSON codec for the daemon protocol (see the interface). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

(* [f] over [items] with a comma between consecutive pieces, in front
   of [tail]. *)
let rec commas f items tail =
  match items with
  | [] -> tail
  | [ x ] -> f x tail
  | x :: rest -> f x ("," :: commas f rest tail)

(* [v]'s encoding as pieces in front of [tail]; each string is escaped
   once, and a [Raw] member is a piece as it is. *)
let rec pieces v tail =
  match v with
  | Null -> "null" :: tail
  | Bool b -> (if b then "true" else "false") :: tail
  | Int n -> string_of_int n :: tail
  | Float f ->
      (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
       else Printf.sprintf "%.17g" f)
      :: tail
  | Str s -> "\"" :: Parcoach.Json_report.escape s :: "\"" :: tail
  | Raw s -> s :: tail
  | List items -> "[" :: commas pieces items ("]" :: tail)
  | Obj fields -> "{" :: commas member_pieces fields ("}" :: tail)

and member_pieces (k, v) tail =
  "\"" :: Parcoach.Json_report.escape k :: "\":" :: pieces v tail

(* [String.concat] adds up the pieces' lengths and fills one string of
   exactly that size: a report spliced in as [Raw] is copied once. *)
let to_string = function
  | Str s -> Parcoach.Json_report.str s
  | v -> String.concat "" (pieces v [])

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let fail st msg = raise (Bad (Printf.sprintf "%s at offset %d" msg st.pos))

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.equal (String.sub st.src st.pos n) word
  then (
    st.pos <- st.pos + n;
    value)
  else fail st (Printf.sprintf "expected '%s'" word)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The code point of the four hex digits at [i], known to be valid. *)
let hex4 src i =
  (hex_digit src.[i] lsl 12)
  lor (hex_digit src.[i + 1] lsl 8)
  lor (hex_digit src.[i + 2] lsl 4)
  lor hex_digit src.[i + 3]

(* A code point's length in UTF-8 (no surrogate pairing: [\uD83D] is
   three bytes, as it always was here). *)
let utf8_length cp = if cp < 0x80 then 1 else if cp < 0x800 then 2 else 3

(* Encode a Unicode code point as UTF-8 bytes at [o]. *)
let set_utf8 b o cp =
  if cp < 0x80 then Bytes.unsafe_set b o (Char.unsafe_chr cp)
  else if cp < 0x800 then (
    Bytes.unsafe_set b o (Char.unsafe_chr (0xC0 lor (cp lsr 6)));
    Bytes.unsafe_set b (o + 1) (Char.unsafe_chr (0x80 lor (cp land 0x3F))))
  else (
    Bytes.unsafe_set b o (Char.unsafe_chr (0xE0 lor (cp lsr 12)));
    Bytes.unsafe_set b (o + 1)
      (Char.unsafe_chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Bytes.unsafe_set b (o + 2) (Char.unsafe_chr (0x80 lor (cp land 0x3F))))

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* The offsets of the escapes of the string being decoded: scratch space
   kept per domain, so decoding a source with thousands of [\n] escapes
   allocates nothing but the result. *)
let escapes = Domain.DLS.new_key (fun () -> ref (Array.make 256 0))

(* Analysis requests carry whole source files as string values, so this
   is the parser's hot path.  One scan finds the closing quote, checks
   every escape, records where each one is and adds up the decoded
   length; the result is then one exact-size string, filled by blitting
   the plain runs between the recorded escapes.  Errors are raised as
   the scan meets them, at the offset of the offending byte. *)
let string_body st =
  let src = st.src in
  let n = String.length src in
  let start = st.pos in
  let esc = Domain.DLS.get escapes in
  let nesc = ref 0 and len = ref 0 in
  let i = ref start and stop = ref (-1) in
  while !stop < 0 do
    let run = !i in
    (* Eight bytes at a time while none is a quote or a backslash: a
       byte of [w] equals [c] when [w lxor c...c] has a zero byte. *)
    while
      !i + 8 <= n
      &&
      let w = get64u src !i in
      let q = Int64.logxor w 0x2222222222222222L
      and b = Int64.logxor w 0x5C5C5C5C5C5C5C5CL in
      Int64.logand
        (Int64.logor
           (Int64.logand (Int64.sub q 0x0101010101010101L) (Int64.lognot q))
           (Int64.logand (Int64.sub b 0x0101010101010101L) (Int64.lognot b)))
        0x8080808080808080L
      = 0L
    do
      i := !i + 8
    done;
    while
      !i < n
      &&
      let c = String.unsafe_get src !i in
      c <> '"' && c <> '\\'
    do
      incr i
    done;
    len := !len + (!i - run);
    if !i >= n then (
      st.pos <- n;
      fail st "unterminated string")
    else if String.unsafe_get src !i = '"' then stop := !i
    else begin
      if !nesc = Array.length !esc then begin
        let grown = Array.make (2 * !nesc) 0 in
        Array.blit !esc 0 grown 0 !nesc;
        esc := grown
      end;
      Array.unsafe_set !esc !nesc !i;
      incr nesc;
      let j = !i + 1 in
      if j >= n then (
        st.pos <- j;
        fail st "bad escape");
      match String.unsafe_get src j with
      | '"' | '\\' | '/' | 'n' | 't' | 'r' | 'b' | 'f' ->
          incr len;
          i := j + 1
      | 'u' ->
          for d = j + 1 to j + 4 do
            if d >= n then (
              st.pos <- d;
              fail st "truncated \\u escape")
            else if hex_digit (String.unsafe_get src d) < 0 then (
              st.pos <- d;
              fail st "bad \\u escape")
          done;
          len := !len + utf8_length (hex4 src (j + 1));
          i := j + 5
      | _ ->
          st.pos <- j;
          fail st "bad escape"
    end
  done;
  let b = Bytes.create !len in
  let o = ref 0 and from = ref start in
  for e = 0 to !nesc - 1 do
    let p = Array.unsafe_get !esc e in
    Bytes.unsafe_blit_string src !from b !o (p - !from);
    o := !o + (p - !from);
    match String.unsafe_get src (p + 1) with
    | 'u' ->
        let cp = hex4 src (p + 2) in
        set_utf8 b !o cp;
        o := !o + utf8_length cp;
        from := p + 6
    | c ->
        Bytes.unsafe_set b !o
          (match c with
          | 'n' -> '\n'
          | 't' -> '\t'
          | 'r' -> '\r'
          | 'b' -> '\b'
          | 'f' -> '\012'
          | c -> c);
        incr o;
        from := p + 2
  done;
  Bytes.unsafe_blit_string src !from b !o (!stop - !from);
  st.pos <- !stop + 1;
  Bytes.unsafe_to_string b

let number st =
  let start = st.pos in
  let is_float = ref false in
  let rec loop () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+') ->
        advance st;
        loop ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance st;
        loop ()
    | _ -> ()
  in
  loop ();
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f when Float.is_finite f -> Float f
    | _ -> fail st "bad number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> fail st "bad number"

let rec value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' ->
      advance st;
      Str (string_body st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then (
        advance st;
        List [])
      else
        let rec items acc =
          let v = value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        List (items [])
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then (
        advance st;
        Obj [])
      else
        let field () =
          skip_ws st;
          expect st '"';
          let k = string_body st in
          skip_ws st;
          expect st ':';
          let v = value st in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields (kv :: acc)
          | Some '}' ->
              advance st;
              List.rev (kv :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
  | Some ('-' | '0' .. '9') -> number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let st = { src = s; pos = 0 } in
  match value st with
  | v ->
      skip_ws st;
      if st.pos < String.length s then Error "trailing garbage" else Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function Int n -> Some n | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

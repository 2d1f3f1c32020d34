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

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (Parcoach.Json_report.escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (Parcoach.Json_report.escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'
  | Raw s -> Buffer.add_string buf s

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

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

(* Encode a Unicode code point as UTF-8 bytes. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then (
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
  else (
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    match peek st with
    | Some c ->
        v := (!v * 16) + digit c;
        advance st
    | None -> fail st "truncated \\u escape"
  done;
  !v

(* Analysis requests carry whole source files as string values, so this
   is the parser's hot path: plain characters are bulk-copied up to the
   next quote or backslash instead of being inspected one at a time. *)
let string_body st =
  let src = st.src in
  let n = String.length src in
  let buf = Buffer.create 16 in
  let rec loop () =
    let start = st.pos in
    let i = ref start in
    while
      !i < n
      &&
      let c = String.unsafe_get src !i in
      c <> '"' && c <> '\\'
    do
      incr i
    done;
    if !i > start then Buffer.add_substring buf src start (!i - start);
    st.pos <- !i;
    if !i >= n then fail st "unterminated string"
    else if src.[!i] = '"' then advance st
    else begin
      advance st;
      (match peek st with
      | Some '"' ->
          advance st;
          Buffer.add_char buf '"'
      | Some '\\' ->
          advance st;
          Buffer.add_char buf '\\'
      | Some '/' ->
          advance st;
          Buffer.add_char buf '/'
      | Some 'n' ->
          advance st;
          Buffer.add_char buf '\n'
      | Some 't' ->
          advance st;
          Buffer.add_char buf '\t'
      | Some 'r' ->
          advance st;
          Buffer.add_char buf '\r'
      | Some 'b' ->
          advance st;
          Buffer.add_char buf '\b'
      | Some 'f' ->
          advance st;
          Buffer.add_char buf '\012'
      | Some 'u' ->
          advance st;
          add_utf8 buf (hex4 st)
      | _ -> fail st "bad escape");
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

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

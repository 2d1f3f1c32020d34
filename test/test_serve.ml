(** Tests for the [parcoachd] serve layer: the JSON codec, the source
    chunker, the content-hashed summary keys, warm/cold report identity
    through the daemon, its serve loop, and [Driver.analyze ?reuse]. *)

open Minilang
module Gen = QCheck.Gen

let serve_options =
  {
    Parcoach.Driver.default_options with
    Parcoach.Driver.taint_filter = true;
    interprocedural = true;
    races = true;
  }

(* A small interprocedural program used by the cache-key tests: [main]
   calls [helper], [helper] calls [leaf]; [loner] is unrelated. *)
let base_source =
  "func leaf() {\n\
  \  MPI_Barrier();\n\
   }\n\
   func helper() {\n\
  \  leaf();\n\
   }\n\
   func loner() {\n\
  \  var t = 1;\n\
  \  t = MPI_Allreduce(t, sum);\n\
   }\n\
   func main() {\n\
  \  helper();\n\
  \  MPI_Barrier();\n\
   }\n"

let parse source = Parser.parse_string ~file:"test.hml" source

(* First-occurrence substring replacement (enough for these tests; no
   regexp library needed). *)
let replace ~sub ~by s =
  let rec find i =
    if i + String.length sub > String.length s then
      Alcotest.failf "replace: %s not found" sub
    else if String.equal (String.sub s i (String.length sub)) sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by
  ^ String.sub s
      (i + String.length sub)
      (String.length s - i - String.length sub)

let keys_of source =
  List.map
    (fun (f, k) -> (f.Ast.fname, k))
    (Serve.Hash.keys ~options:serve_options (parse source))

let key tbl name =
  match List.assoc_opt name tbl with
  | Some k -> k
  | None -> Alcotest.failf "no key for %s" name

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let rec json_equal a b =
  match (a, b) with
  | Serve.Json.Null, Serve.Json.Null -> true
  | Serve.Json.Bool x, Serve.Json.Bool y -> x = y
  | Serve.Json.Int x, Serve.Json.Int y -> x = y
  | Serve.Json.Float x, Serve.Json.Float y -> x = y
  | Serve.Json.Str x, Serve.Json.Str y -> String.equal x y
  | Serve.Json.List x, Serve.Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Serve.Json.Obj x, Serve.Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && json_equal va vb)
           x y
  | _ -> false

let test_json_roundtrip () =
  let v =
    Serve.Json.Obj
      [
        ("id", Serve.Json.Int 7);
        ("pi", Serve.Json.Float 3.5);
        ("name", Serve.Json.Str "a \"quoted\"\n\tstring \\ with\rescapes");
        ("flag", Serve.Json.Bool true);
        ("nothing", Serve.Json.Null);
        ( "items",
          Serve.Json.List
            [ Serve.Json.Int 1; Serve.Json.Str ""; Serve.Json.Bool false ] );
        ("empty_obj", Serve.Json.Obj []);
        ("empty_list", Serve.Json.List []);
      ]
  in
  match Serve.Json.parse (Serve.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (json_equal v v')
  | Error msg -> Alcotest.failf "round trip failed: %s" msg

let test_json_unicode () =
  match Serve.Json.parse {|{"s":"café ✓"}|} with
  | Ok v ->
      Alcotest.(check (option string))
        "utf8 decoding"
        (Some "caf\xc3\xa9 \xe2\x9c\x93")
        (Option.bind (Serve.Json.member "s" v) Serve.Json.to_str)
  | Error msg -> Alcotest.failf "unicode parse failed: %s" msg

let test_json_errors () =
  let bad s =
    match Serve.Json.parse s with
    | Ok _ -> Alcotest.failf "expected parse error for %s" s
    | Error _ -> ()
  in
  bad "{\"a\":1} trailing";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "nul";
  (* The string decoder's messages, each at the offset of the byte that
     ends the scan. *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check (result reject string))
        input (Error expected) (Serve.Json.parse input))
    [
      ({|"abc|}, "unterminated string at offset 4");
      ({|{"k":"abc|}, "unterminated string at offset 9");
      ({|"a\qb"|}, "bad escape at offset 3");
      ({|"a\|}, "bad escape at offset 3");
      ({|"a\u12|}, "truncated \\u escape at offset 6");
      ({|"a\u12G4"|}, "bad \\u escape at offset 6");
      ({|"\uZ"|}, "bad \\u escape at offset 3");
      ({|"\u004"|}, "bad \\u escape at offset 6");
    ]

(* The decoded bytes of every escape: [\u] is UTF-8 of one, two or
   three bytes (a surrogate half is three bytes of its own). *)
let test_json_escapes () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check (result string string))
        input (Ok expected)
        (Result.map
           (fun v ->
             Option.value ~default:"<not a string>" (Serve.Json.to_str v))
           (Serve.Json.parse input)))
    [
      ({|"\"\\\/\n\t\r\b\f"|}, "\"\\/\n\t\r\b\012");
      ({|"x\u0000y"|}, "x\000y");
      ({|"\u0041\u007f"|}, "A\127");
      ({|"\u0080\u00e9\u07FF"|}, "\xc2\x80\xc3\xa9\xdf\xbf");
      ( {|"\u0800\u2713\uffff\uD83D"|},
        "\xe0\xa0\x80\xe2\x9c\x93\xef\xbf\xbf\xed\xa0\xbd" );
      ({|"plain run, then \n, then a longer plain run\\"|},
        "plain run, then \n, then a longer plain run\\");
      ({|""|}, "");
    ]

(* Byte strings up to 200 bytes, mostly printable, with quotes,
   backslashes, control bytes and bytes from 0x7f up mixed in, so an
   escape falls at every offset of the eight-byte scans. *)
let arb_json_bytes =
  QCheck.make ~print:(Printf.sprintf "%S")
    Gen.(
      string_size (int_bound 200)
        ~gen:
          (frequency
             [
               (6, printable);
               (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\x1f'; '\x7f'; '\x80' ]);
               (1, char);
             ]))

(* The escaping rules, one byte at a time. *)
let escape_spec s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf {|\"|}
      | '\\' -> Buffer.add_string buf {|\\|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | '\t' -> Buffer.add_string buf {|\t|}
      | '\r' -> Buffer.add_string buf {|\r|}
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf {|\u%04x|} (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Every byte value at every offset of a 17-byte string, plain bytes
   around it: the word-at-a-time escaper agrees with the spec, and hands
   a string with nothing to escape back unchanged. *)
let test_json_escape_every_byte () =
  for c = 0 to 255 do
    for at = 0 to 16 do
      let s = String.init 17 (fun i -> if i = at then Char.chr c else 'a') in
      Alcotest.(check string)
        (Printf.sprintf "byte %d at %d" c at)
        (escape_spec s)
        (Parcoach.Json_report.escape s);
      if String.equal (escape_spec s) s then
        Alcotest.(check bool)
          (Printf.sprintf "byte %d at %d returned as is" c at)
          true
          (Parcoach.Json_report.escape s == s)
    done
  done

let prop_json_escape_spec =
  QCheck.Test.make ~name:"json escape = byte-at-a-time spec" ~count:500
    arb_json_bytes (fun s ->
      let e = Parcoach.Json_report.escape s in
      String.equal e (escape_spec s)
      && String.equal
           (Serve.Json.to_string (Serve.Json.Str s))
           ("\"" ^ e ^ "\""))

(* Any byte string survives [to_string] and [parse], whatever the
   alignment of its quotes and backslashes in the eight-byte scan. *)
let prop_json_string_roundtrip =
  QCheck.Test.make ~name:"json strings round trip" ~count:300 arb_json_bytes
    (fun s ->
      match Serve.Json.parse (Serve.Json.to_string (Serve.Json.Str s)) with
      | Ok (Serve.Json.Str s') -> String.equal s s'
      | _ -> false)

let test_json_raw_splice () =
  let v =
    Serve.Json.Obj
      [ ("ok", Serve.Json.Bool true); ("report", Serve.Json.Raw {|{"n":1}|}) ]
  in
  Alcotest.(check string)
    "raw spliced verbatim" {|{"ok":true,"report":{"n":1}}|}
    (Serve.Json.to_string v)

(* ------------------------------------------------------------------ *)
(* Chunker                                                             *)
(* ------------------------------------------------------------------ *)

let locs_of_program (p : Ast.program) =
  List.concat_map
    (fun f -> f.Ast.floc :: List.map (fun s -> s.Ast.sloc) (Ast.stmts_of_func f))
    p.Ast.funcs

let chunked_parse ~file source =
  match Serve.Chunker.split source with
  | { Serve.Chunker.clean = false; _ } -> None
  | { Serve.Chunker.chunks; _ } ->
      Some
        {
          Ast.funcs =
            List.map
              (fun (c : Serve.Chunker.chunk) ->
                match (Parser.parse_string ~file:"" c.Serve.Chunker.text).Ast.funcs with
                | [ f ] ->
                    Serve.Chunker.shift_func ~file ~line:c.Serve.Chunker.line
                      ~col:c.Serve.Chunker.col f
                | _ -> Alcotest.fail "chunk is not a single function")
              chunks;
        }

let check_chunked_equals_direct source =
  let direct = parse source in
  match chunked_parse ~file:"test.hml" source with
  | None -> Alcotest.fail "splitter rejected a clean source"
  | Some via_chunks ->
      Alcotest.(check bool)
        "chunked parse structurally equal" true
        (Ast.equal_program direct via_chunks);
      Alcotest.(check bool)
        "chunked parse locations equal" true
        (List.for_all2 Loc.equal (locs_of_program direct)
           (locs_of_program via_chunks))

let test_chunker_equals_direct () =
  check_chunked_equals_direct base_source;
  (* Comments (with a decoy 'func' keyword), blank lines, and a closing
     brace sharing a line with the next function's keyword. *)
  check_chunked_equals_direct
    "// leading comment, func decoy\n\n\
     func one() {\n\
  \  /* block comment { with braces } and func decoy */\n\
  \  MPI_Barrier();\n\
     }\n\n\
     func two() { MPI_Barrier(); }\n\
     func three() {\n\
  \  two();\n\
     }\n"

let test_chunker_fallback () =
  let unclean source =
    let { Serve.Chunker.clean; _ } = Serve.Chunker.split source in
    Alcotest.(check bool) (Printf.sprintf "unclean: %s" source) false clean
  in
  unclean "garbage func main() { }";
  unclean "func broken() {";
  unclean "func broken() { } }";
  unclean "func c() { } /* unterminated";
  unclean ""

(* Pinned scans: [clean], then each chunk's text, line and column. *)
let check_split label source ~clean expected =
  let { Serve.Chunker.clean = c; chunks } = Serve.Chunker.split source in
  Alcotest.(check bool) (label ^ ": clean") clean c;
  Alcotest.(check (list (triple string int int)))
    (label ^ ": chunks") expected
    (List.map
       (fun (ch : Serve.Chunker.chunk) ->
         (ch.Serve.Chunker.text, ch.Serve.Chunker.line, ch.Serve.Chunker.col))
       chunks)

let test_chunker_edge_cases () =
  (* [func] inside an identifier is not a boundary. *)
  let ids = "func funcx() {\n}\nfunc myfunc() {\n  funcx();\n}\n" in
  check_split "funcx/myfunc" ids ~clean:true
    [ ("func funcx() {\n}\n", 1, 1); ("func myfunc() {\n  funcx();\n}\n", 3, 1) ];
  check_chunked_equals_direct ids;
  check_split "myfunc at top level" "myfunc() { }" ~clean:false [];
  (* A bare [func] at the end of the file is a boundary of its own; its
     chunk does not parse, so the daemon falls back to the whole file. *)
  check_split "func at EOF" "func a() { }\nfunc" ~clean:true
    [ ("func a() { }\n", 1, 1); ("func", 2, 1) ];
  (* CR and tab are ordinary one-column characters, as in the lexer. *)
  let crlf = "func a() {\r\n\tMPI_Barrier();\r\n}\r\n\tfunc b() {\r\n}\r\n" in
  check_split "CRLF and tabs" crlf ~clean:true
    [
      ("func a() {\r\n\tMPI_Barrier();\r\n}\r\n\t", 1, 1);
      ("func b() {\r\n}\r\n", 4, 2);
    ];
  check_chunked_equals_direct crlf;
  check_split "unterminated block comment in a body"
    "func a() { /* open }\n" ~clean:false
    [ ("func a() { /* open }\n", 1, 1) ];
  check_split "line comment on the last line" "func a() {\n}\n// end" ~clean:true
    [ ("func a() {\n}\n// end", 1, 1) ];
  check_chunked_equals_direct "func a() {\n}\n// end";
  (* Stray tokens before the first function make the scan unclean; after
     it they stay in the chunk, whose parse then fails. *)
  check_split "stray token first" "; func a() { }" ~clean:false
    [ ("func a() { }", 1, 3) ];
  check_split "stray token after" "func a() { } ;\nfunc b() { }" ~clean:true
    [ ("func a() { } ;\n", 1, 1); ("func b() { }", 2, 1) ]

let prop_chunker_roundtrip =
  QCheck.Test.make ~name:"chunked parse = direct parse (incl. locations)"
    ~count:40 Test_qcheck.arb_program (fun p ->
      let source = Pretty.program_to_string p in
      let direct = parse source in
      match chunked_parse ~file:"test.hml" source with
      | None -> false
      | Some via_chunks ->
          Ast.equal_program direct via_chunks
          && List.for_all2 Loc.equal (locs_of_program direct)
               (locs_of_program via_chunks))

(* ------------------------------------------------------------------ *)
(* Incremental re-split                                                *)
(* ------------------------------------------------------------------ *)

(* [Chunker.resplit] with each chunk's text as its payload; [fresh] and
   [moved] count their calls. *)
let resplit ?(fresh = ref 0) ?(moved = ref 0) ?prev source =
  Serve.Chunker.resplit ?prev source
    ~fresh:(fun (c : Serve.Chunker.chunk) ->
      incr fresh;
      c.text)
    ~moved:(fun (sp : string Serve.Chunker.span) ->
      incr moved;
      sp.data)

let resplit_exn ?fresh ?moved ?prev source =
  match resplit ?fresh ?moved ?prev source with
  | Some l -> l
  | None -> Alcotest.fail "resplit rejected a clean source"

(* [resplit ?prev source] agrees with [split source]: [None] exactly
   when the split is unclean, else the same texts, lines and columns,
   each text at its span's offset.  Returns the layout too. *)
let resplit_agrees ?prev source =
  let expected = Serve.Chunker.split source in
  match resplit ?prev source with
  | None -> (not expected.clean, None)
  | Some l ->
      let spans = Array.to_list l.spans in
      let at_offset (sp : string Serve.Chunker.span) =
        let len = String.length sp.data in
        sp.off + len <= String.length source
        && String.equal sp.data (String.sub source sp.off len)
      in
      ( expected.clean
        && String.equal l.source source
        && List.equal ( = )
             (List.map
                (fun (c : Serve.Chunker.chunk) -> (c.text, c.line, c.col))
                expected.chunks)
             (List.map
                (fun (sp : string Serve.Chunker.span) ->
                  (sp.data, sp.line, sp.col))
                spans)
        && List.for_all at_offset spans,
        Some l )

let insert_at s pos text =
  String.sub s 0 pos ^ text ^ String.sub s pos (String.length s - pos)

(* The offset of the closing brace of chunk [sp]. *)
let closing_brace source (sp : string Serve.Chunker.span) =
  String.rindex_from source (sp.off + String.length sp.data - 1) '}'

(* The catalog, the catalog with a block comment opening every function
   body (so an inserted [/*] can close in a later function), and the
   examples as written. *)
let resplit_bases =
  lazy
    (let catalog =
       List.map
         (fun (e : Benchsuite.Catalog.entry) ->
           Pretty.program_to_string (e.Benchsuite.Catalog.generate ()))
         Benchsuite.Catalog.all
     in
     let commented source =
       String.concat "\n"
         (List.map
            (fun l ->
              if String.starts_with ~prefix:"func " l then l ^ " /* note */"
              else l)
            (String.split_on_char '\n' source))
     in
     Array.of_list
       (catalog @ List.map commented catalog
       @ List.filter_map
           (fun name ->
             if Filename.check_suffix name ".hml" then
               Some
                 (In_channel.with_open_bin
                    (Filename.concat "../examples/programs" name)
                    In_channel.input_all)
             else None)
           (List.sort String.compare
              (Array.to_list (Sys.readdir "../examples/programs")))))

(* Only the edited chunk is scanned again; chunks after it move by the
   newline count without being re-made. *)
let test_resplit_incremental () =
  let source = (Lazy.force resplit_bases).(0) in
  let base = resplit_exn source in
  let n = Array.length base.spans in
  Alcotest.(check bool) "several chunks" true (n >= 4);
  let fresh = ref 0 and moved = ref 0 in
  let counted ?(prev = base) text =
    fresh := 0;
    moved := 0;
    ignore (resplit_exn ~fresh ~moved ~prev text);
    (!fresh, !moved)
  in
  Alcotest.(check bool)
    "an unchanged source returns the previous layout" true
    (resplit_exn ~prev:base (String.sub source 0 (String.length source))
    == base);
  Alcotest.(check (pair int int))
    "an unchanged source scans nothing" (0, 0)
    (counted (String.sub source 0 (String.length source)));
  (* A blank line before the closing brace of a mid-file function. *)
  let mid = n / 2 in
  let close = closing_brace source base.spans.(mid) in
  let edited = insert_at source close "\n" in
  Alcotest.(check (pair int int))
    "a mid-file edit makes one chunk and moves the ones after it"
    (1, n - mid - 1) (counted edited);
  let l = resplit_exn ~prev:base edited in
  Alcotest.(check bool)
    "the chunks before it are carried physically" true
    (Array.for_all2 ( == ) (Array.sub base.spans 0 mid)
       (Array.sub l.spans 0 mid));
  Alcotest.(check bool) "= split" true (fst (resplit_agrees ~prev:base edited));
  (* A leading blank line: the first chunk is scanned again (the bytes
     before it changed), every other chunk moves down a line. *)
  Alcotest.(check (pair int int))
    "leading shift" (1, n - 1) (counted ("\n" ^ source));
  Alcotest.(check (pair int int))
    "an edit that keeps the newline count moves nothing" (1, 0)
    (counted (insert_at source close " "));
  (* Unclean middles fall back to the whole split, which says so. *)
  List.iter
    (fun broken ->
      let text = insert_at source close broken in
      Alcotest.(check bool)
        broken true
        (resplit ~prev:base text = None
        && not (Serve.Chunker.split text).clean))
    [ "/* open\n"; "{\n"; "}}\n" ];
  (* A comment opened in the middle that closes past the next boundary,
     in the next function's header comment: the two functions are one
     chunk now. *)
  let commented =
    (Lazy.force resplit_bases).(List.length Benchsuite.Catalog.all)
  in
  let base = resplit_exn commented in
  let close = closing_brace commented base.spans.(Array.length base.spans / 2) in
  let swallowed = insert_at commented close "/* " in
  Alcotest.(check int)
    "the comment swallows a boundary"
    (Array.length base.spans - 1)
    (List.length (Serve.Chunker.split swallowed).chunks);
  Alcotest.(check bool)
    "= split" true
    (fst (resplit_agrees ~prev:base swallowed));
  (* The same comment opened at depth 0, after the closing brace: it
     hides the next function's header, so the split is unclean. *)
  let hidden = insert_at commented (close + 1) "/*" in
  Alcotest.(check bool)
    "a header hidden at depth 0" true
    (resplit ~prev:base hidden = None
    && not (Serve.Chunker.split hidden).clean)

(* The bytes an edit inserts: the scan's alphabet. *)
let resplit_tokens =
  [| "func"; "{"; "}"; "//"; "/*"; "*/"; "\n"; "x"; "f1"; "_"; " "; "  " |]

(* One byte edit, resolved against the source it applies to.  [kind]
   picks where: anywhere, in the first chunk, in the last chunk, across
   a chunk boundary, inside a boundary's [func], or on the leading
   blanks; [a] and [b] pick the exact offset and how much to delete;
   [ins] lists the tokens to insert. *)
type byte_edit = { kind : int; a : int; b : int; ins : int list }

let apply_edit source { kind; a; b; ins } =
  let n = String.length source in
  let clamp x = max 0 (min n x) in
  let offsets =
    match resplit source with
    | Some l ->
        Array.map (fun (sp : string Serve.Chunker.span) -> sp.off) l.spans
    | None -> [||]
  in
  let boundary () = offsets.(a mod Array.length offsets) in
  let pos, del =
    match kind with
    | 1 -> (clamp (a mod 60), b mod 6)
    | 2 -> (clamp (n - (a mod 60)), b mod 6)
    | 3 when offsets <> [||] ->
        let back = 1 + (b mod 6) in
        (clamp (boundary () - back), back + 1 + (a mod 5))
    | 4 when offsets <> [||] -> (boundary () + (b mod 5), a mod 2)
    | 5 when n > 0 && b mod 2 = 0 && (source.[0] = '\n' || source.[0] = ' ') ->
        (0, 1)
    | 5 -> (0, 0)
    | _ -> (a mod (n + 1), b mod 8)
  in
  let ins =
    if kind = 5 then
      if del > 0 then ""
      else String.make (1 + (a mod 3)) (if b mod 3 = 0 then ' ' else '\n')
    else String.concat "" (List.map (fun t -> resplit_tokens.(t)) ins)
  in
  let del = min del (n - pos) in
  String.sub source 0 pos ^ ins ^ String.sub source (pos + del) (n - pos - del)

let byte_edit_to_string e =
  Printf.sprintf "kind %d a %d b %d ins [%s]" e.kind e.a e.b
    (String.concat ","
       (List.map (fun t -> Printf.sprintf "%S" resplit_tokens.(t)) e.ins))

(* A chain of edits, each re-split against the last clean layout (as
   the daemon keeps it), must give [split] of the whole source. *)
let prop_resplit_equals_split =
  QCheck.Test.make ~name:"incremental re-split = split of the whole source"
    ~count:500
    (QCheck.make
       ~print:(fun (base, edits) ->
         Printf.sprintf "base %d: %s" base
           (String.concat "; " (List.map byte_edit_to_string edits)))
       Gen.(
         pair
           (int_bound (Array.length (Lazy.force resplit_bases) - 1))
           (list_size (int_range 1 6)
              (map
                 (fun (kind, a, b, ins) -> { kind; a; b; ins })
                 (quad (int_bound 5) nat nat
                    (list_size (int_bound 4)
                       (int_bound (Array.length resplit_tokens - 1))))))))
    (fun (base, edits) ->
      let source = ref (Lazy.force resplit_bases).(base) in
      let prev = ref (resplit !source) in
      List.for_all
        (fun e ->
          source := apply_edit !source e;
          let ok, l = resplit_agrees ?prev:!prev !source in
          if Option.is_some l then prev := l;
          ok || QCheck.Test.fail_reportf "disagrees on %S" !source)
        edits)

(* ------------------------------------------------------------------ *)
(* Summary-cache keys                                                  *)
(* ------------------------------------------------------------------ *)

let test_keys_ignore_layout () =
  let base = keys_of base_source in
  (* Inserting comments and blank lines shifts every location but no
     key. *)
  let commented =
    "// a new leading comment\n\n"
    ^ String.concat "\n// mid comment\n"
        [ base_source; "func extra_unused() {\n  MPI_Barrier();\n}\n" ]
  in
  let shifted = keys_of commented in
  List.iter
    (fun (name, k) ->
      Alcotest.(check string) (name ^ " key unchanged") k (key shifted name))
    base

let test_keys_ignore_unrelated () =
  let base = keys_of base_source in
  (* Renaming [loner] (referenced by nobody) leaves the other keys
     alone. *)
  let renamed = replace ~sub:"loner" ~by:"renamed_loner" base_source in
  let renamed_keys = keys_of renamed in
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " key survives unrelated rename")
        (key base name) (key renamed_keys name))
    [ "leaf"; "helper"; "main" ];
  (* Reordering functions changes no key. *)
  let p = parse base_source in
  let reordered =
    Pretty.program_to_string { Ast.funcs = List.rev p.Ast.funcs }
  in
  let reordered_keys = keys_of reordered in
  List.iter
    (fun (name, k) ->
      Alcotest.(check string) (name ^ " key survives reorder") k
        (key reordered_keys name))
    base

let test_keys_track_bodies () =
  let base = keys_of base_source in
  (* Editing [leaf]'s body invalidates leaf and its transitive callers
     (helper, main) but not the unrelated [loner]. *)
  let edited =
    replace
      ~sub:"func leaf() {\n  MPI_Barrier();\n}"
      ~by:"func leaf() {\n  MPI_Barrier();\n  MPI_Barrier();\n}" base_source
  in
  let edited_keys = keys_of edited in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " key invalidated by callee edit")
        false
        (String.equal (key base name) (key edited_keys name)))
    [ "leaf"; "helper"; "main" ];
  Alcotest.(check string)
    "loner key untouched by leaf edit" (key base "loner")
    (key edited_keys "loner");
  (* Different analysis options give different keys for every function. *)
  let other_options =
    List.map
      (fun (f, k) -> (f.Ast.fname, k))
      (Serve.Hash.keys ~options:Parcoach.Driver.default_options
         (parse base_source))
  in
  List.iter
    (fun (name, k) ->
      Alcotest.(check bool)
        (name ^ " key depends on options")
        false
        (String.equal k (key other_options name)))
    base

let prop_keys_location_insensitive =
  QCheck.Test.make ~name:"summary keys ignore locations" ~count:40
    Test_qcheck.arb_program (fun p ->
      let reparsed = parse (Pretty.program_to_string p) in
      List.for_all2
        (fun (a, ka) (b, kb) ->
          String.equal a.Ast.fname b.Ast.fname && String.equal ka kb)
        (Serve.Hash.keys ~options:serve_options p)
        (Serve.Hash.keys ~options:serve_options reparsed))

(* ------------------------------------------------------------------ *)
(* Daemon: warm = cold, incrementality, relocation                     *)
(* ------------------------------------------------------------------ *)

let analysis_exn label = function
  | Ok (a : Serve.Daemon.analysis) -> a
  | Error _ -> Alcotest.failf "%s: analysis failed validation" label

let cold_json source =
  Parcoach.Json_report.to_string
    (Parcoach.Driver.analyze ~options:serve_options ~jobs:1
       (Parser.parse_string ~file:"warm.hml" source))

let test_daemon_warm_identity () =
  let daemon = Serve.Daemon.create () in
  let seed =
    analysis_exn "seed"
      (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
         ~file:"warm.hml" base_source)
  in
  Alcotest.(check int) "cold request analyses everything" 0
    seed.Serve.Daemon.reused;
  (* A leading comment shifts every line; the [main] edit re-analyses
     exactly one function; cached summaries must be relocated so the
     merged report is byte-identical to a cold analysis. *)
  let edited =
    "// shift every line down\n"
    ^ replace
        ~sub:"func main() {\n  helper();"
        ~by:"func main() {\n  var fresh = 3;\n  helper();" base_source
  in
  let warm =
    analysis_exn "warm"
      (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
         ~file:"warm.hml" edited)
  in
  Alcotest.(check int) "one function re-analysed" 1 warm.Serve.Daemon.analysed;
  Alcotest.(check int) "three summaries reused" 3 warm.Serve.Daemon.reused;
  Alcotest.(check string)
    "warm report byte-identical to cold"
    (cold_json edited)
    (Parcoach.Json_report.to_string warm.Serve.Daemon.report);
  (* Re-sending the same source is an all-hit chunk walk and still
     produces the identical report. *)
  let again =
    analysis_exn "again"
      (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
         ~file:"warm.hml" edited)
  in
  Alcotest.(check string)
    "replayed report identical"
    (cold_json edited)
    (Parcoach.Json_report.to_string again.Serve.Daemon.report);
  (* The warm request wrote its relocated summaries back, so the replay
     hits every entry physically: the very entries the warm request
     returned, in source order. *)
  Alcotest.(check int) "replay reuses every summary" 4 again.Serve.Daemon.reused;
  Alcotest.(check bool)
    "replay returns the written-back entries" true
    (List.for_all2 ( == ) warm.Serve.Daemon.entries again.Serve.Daemon.entries);
  (* Service-scale programs: appending a statement to [main] (which
     nothing calls) changes one summary key. *)
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let program = e.generate_large () in
      let append_to_main (f : Ast.func) =
        if String.equal f.Ast.fname "main" then
          {
            f with
            Ast.body = f.Ast.body @ [ Ast.mk (Ast.Compute (Ast.Int 9_999_999)) ];
          }
        else f
      in
      let edited =
        Pretty.program_to_string
          { Ast.funcs = List.map append_to_main program.Ast.funcs }
      in
      let daemon = Serve.Daemon.create () in
      ignore
        (analysis_exn e.name
           (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
              ~file:"warm.hml"
              (Pretty.program_to_string program)));
      let warm =
        analysis_exn e.name
          (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
             ~file:"warm.hml" edited)
      in
      Alcotest.(check int)
        (e.name ^ ": one function re-analysed")
        1 warm.Serve.Daemon.analysed;
      Alcotest.(check string)
        (e.name ^ ": warm report byte-identical to cold")
        (cold_json edited)
        (Parcoach.Json_report.to_string warm.Serve.Daemon.report))
    Benchsuite.Catalog.all

let test_daemon_invalid_source () =
  let daemon = Serve.Daemon.create () in
  (match
     Serve.Daemon.analyze_source daemon ~options:serve_options
       "func main() { no_such_function(); }"
   with
  | Ok _ -> Alcotest.fail "undefined call should not validate"
  | Error issues ->
      Alcotest.(check bool) "validation errors reported" false
        (Validate.is_valid issues));
  match Serve.Daemon.analyze_source daemon ~options:serve_options "func main( {" with
  | Ok _ -> Alcotest.fail "syntax error should not analyse"
  | Error issues ->
      Alcotest.(check int) "one parse issue" 1 (List.length issues)

(* Drive [Daemon.serve] over [lines] through temp files: its result and
   the lines it wrote. *)
let run_serve lines =
  let in_path = Filename.temp_file "parcoachd_test" ".in" in
  let out_path = Filename.temp_file "parcoachd_test" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      Out_channel.with_open_bin in_path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      let stop =
        In_channel.with_open_bin in_path (fun ic ->
            Out_channel.with_open_bin out_path (fun oc ->
                Serve.Daemon.serve (Serve.Daemon.create ()) ic oc))
      in
      (stop, In_channel.with_open_bin out_path In_channel.input_lines))

let request_line ?(options = []) ?only ~id ~file source =
  Serve.Json.to_string
    (Serve.Json.Obj
       [
         ("id", Serve.Json.Int id);
         ("method", Serve.Json.Str "analyze");
         ( "params",
           Serve.Json.Obj
             ([
                ("source", Serve.Json.Str source);
                ("file", Serve.Json.Str file);
                ("jobs", Serve.Json.Int 1);
              ]
             @ List.map (fun (k, b) -> (k, Serve.Json.Bool b)) options
             @
             match only with
             | None -> []
             | Some c -> [ ("only", Serve.Json.Str c) ]) );
       ])

let response_exn line =
  match Serve.Json.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparsable response %s: %s" line msg

let warnings_of response =
  match
    Option.bind (Serve.Json.member "warnings" response) Serve.Json.to_int
  with
  | Some n -> n
  | None -> Alcotest.failf "response without warning count"

(* The analysis payload of a response: everything except the cache
   counters and timings, which depend on the warm state and the clock. *)
let payload response =
  let part name =
    match Serve.Json.member name response with
    | Some v -> Serve.Json.to_string v
    | None -> "<absent>"
  in
  String.concat "|"
    [ part "ok"; part "valid"; part "report"; part "warnings"; part "issues";
      part "error" ]

(* [serve] is a loop over [handle_line]: on the smoke session it writes
   a fresh daemon's [handle_line] answers, [cache] counts included, line
   for line, and reads nothing after the [shutdown]; without that line
   it answers every line up to EOF. *)
let test_serve_loop () =
  let lines =
    In_channel.with_open_bin "serve_smoke.jsonl" In_channel.input_lines
  in
  let expected =
    let daemon = Serve.Daemon.create () in
    List.map
      (fun l -> Test_golden.drop_timings (Serve.Daemon.handle_line daemon l))
      lines
  in
  let check label input stop answered =
    let stopped, out = run_serve input in
    Alcotest.(check bool) (label ^ ": stop") true (stopped = stop);
    Alcotest.(check (list string))
      (label ^ ": answers") answered
      (List.map Test_golden.drop_timings out)
  in
  let shutdown = List.length lines - 1 in
  Alcotest.(check bool) "the session ends with a shutdown" true
    (String.ends_with ~suffix:{|"shutdown"}|} (List.nth lines shutdown));
  check "to shutdown"
    (lines @ [ {|{"id":8,"method":"ping"}|} ])
    `Shutdown expected;
  check "to EOF" (List.filteri (fun i _ -> i <> shutdown) lines) `Eof
    (List.filteri (fun i _ -> i <> shutdown) expected)

let test_daemon_protocol_errors () =
  let daemon = Serve.Daemon.create () in
  let check_error label line =
    match Serve.Json.parse (Serve.Daemon.handle_line daemon line) with
    | Error msg -> Alcotest.failf "%s: unparsable response: %s" label msg
    | Ok v ->
        Alcotest.(check (option bool))
          label (Some false)
          (Option.bind (Serve.Json.member "ok" v) Serve.Json.to_bool)
  in
  check_error "bad json" "{nope";
  check_error "missing method" {|{"id":1}|};
  (* JSON has no infinities: an out-of-range number is a bad number,
     never echoed back as "inf". *)
  check_error "infinite id" {|{"id":1e999,"method":"ping"}|};
  check_error "negative infinite id" {|{"id":-1e400,"method":"ping"}|};
  check_error "unknown method" {|{"id":1,"method":"frobnicate"}|};
  check_error "missing source" {|{"id":1,"method":"analyze"}|};
  check_error "bad level"
    {|{"id":1,"method":"analyze","params":{"source":"func main() { }","level":"nope"}}|};
  check_error "bad jobs"
    {|{"id":1,"method":"analyze","params":{"source":"func main() { }","jobs":0}}|};
  check_error "unknown warning class in only"
    {|{"id":1,"method":"analyze","params":{"source":"func main() { }","only":"no-such-class"}}|};
  (* A parameter present with the wrong JSON type is an error naming the
     expected type, never silently replaced by its default. *)
  List.iter
    (fun (param, expected) ->
      let line =
        Printf.sprintf
          {|{"id":1,"method":"analyze","params":{"source":"func main() { }",%s}}|}
          param
      in
      Alcotest.(check string)
        param
        (Printf.sprintf {|{"id":1,"ok":false,"error":"analyze: %s"}|} expected)
        (Serve.Daemon.handle_line daemon line))
    [
      ({|"races":"yes"|}, "'races' must be a boolean");
      ({|"taint_filter":1|}, "'taint_filter' must be a boolean");
      ({|"interprocedural":null|}, "'interprocedural' must be a boolean");
      ({|"requests":"true"|}, "'requests' must be a boolean");
      ({|"initial_multithreaded":0|}, "'initial_multithreaded' must be a boolean");
      ({|"jobs":"2"|}, "'jobs' must be an integer");
      ({|"jobs":1.5|}, "'jobs' must be an integer");
      ({|"level":5|}, "'level' must be a string");
      ({|"file":7|}, "'file' must be a string");
    ];
  Alcotest.(check string)
    "source of the wrong type"
    {|{"id":1,"ok":false,"error":"analyze: 'source' must be a string"}|}
    (Serve.Daemon.handle_line daemon
       {|{"id":1,"method":"analyze","params":{"source":["func main() { }"]}}|})

(* A syntax error is a located issue of an invalid program, built by the
   same helper as the CLIs' reports, never an internal error. *)
let test_daemon_syntax_errors () =
  let daemon = Serve.Daemon.create () in
  let check label source expected =
    let request =
      Serve.Json.to_string
        (Serve.Json.Obj
           [
             ("id", Serve.Json.Int 1);
             ("method", Serve.Json.Str "analyze");
             ( "params",
               Serve.Json.Obj
                 [
                   ("source", Serve.Json.Str source);
                   ("file", Serve.Json.Str "s.hml");
                 ] );
           ])
    in
    Alcotest.(check string)
      label
      ({|{"id":1,"ok":true,"valid":false,"issues":[{"severity":"error","loc":{"file":"s.hml",|}
      ^ expected ^ "}]}")
      (Serve.Daemon.handle_line daemon request)
  in
  check "huge integer" "func main() { var x = 99999999999999999999; }"
    {|"line":1,"col":23},"message":"lex error: integer literal out of range"|};
  check "missing semicolon" "func main() {\n  var x = 1\n}"
    {|"line":3,"col":1},"message":"parse error: expected ';' but found '}'"|}

(* The requests pass and the warning-class filter, shared with
   [parcoachc --requests] / [--only]. *)
let test_daemon_only_filter () =
  let source =
    "func main() {\n\
    \  r = MPI_Ibarrier();\n\
    \  if (rank() == 0) {\n\
    \    MPI_Wait(r);\n\
    \  }\n\
     }\n"
  in
  let request id only =
    request_line ~id ~file:"only.hml" ?only
      ~options:[ ("taint_filter", true); ("requests", true) ]
      source
  in
  let _, responses =
    run_serve
      [
        request 1 None;
        request 2 (Some "request leak");
        request 3 (Some "data race");
      ]
  in
  let get id = response_exn (List.nth responses (id - 1)) in
  (* Unfiltered: the leak and the completion mismatch. *)
  Alcotest.(check int) "both warnings unfiltered" 2 (warnings_of (get 1));
  Alcotest.(check int) "leak only" 1 (warnings_of (get 2));
  Alcotest.(check int) "disjoint class filters everything" 0
    (warnings_of (get 3))

(* Every analysis option is part of the summary key.  The record literal
   in [with_field] breaks the build when a field is added; the field
   count check then asks for a flip of the new field. *)
let test_options_digest_fields () =
  let base = serve_options in
  let with_field ?(initial_word = base.Parcoach.Driver.initial_word)
      ?(provided_level = base.Parcoach.Driver.provided_level)
      ?(taint_filter = base.Parcoach.Driver.taint_filter)
      ?(interprocedural = base.Parcoach.Driver.interprocedural)
      ?(races = base.Parcoach.Driver.races)
      ?(requests = base.Parcoach.Driver.requests) () =
    {
      Parcoach.Driver.initial_word;
      provided_level;
      taint_filter;
      interprocedural;
      races;
      requests;
    }
  in
  let flips =
    [
      ( "initial_word",
        with_field
          ~initial_word:
            (if base.Parcoach.Driver.initial_word = [] then
               [ Parcoach.Pword.P 0 ]
             else [])
          () );
      ( "provided_level",
        with_field
          ~provided_level:
            (if base.Parcoach.Driver.provided_level = Mpisim.Thread_level.Single
             then Mpisim.Thread_level.Multiple
             else Mpisim.Thread_level.Single)
          () );
      ("taint_filter", with_field ~taint_filter:(not base.taint_filter) ());
      ( "interprocedural",
        with_field ~interprocedural:(not base.interprocedural) () );
      ("races", with_field ~races:(not base.races) ());
      ("requests", with_field ~requests:(not base.requests) ());
    ]
  in
  Alcotest.(check int)
    "one flip per options field"
    (Obj.size (Obj.repr base))
    (List.length flips);
  let d = Serve.Hash.options_digest base in
  Alcotest.(check string) "unchanged options keep the digest" d
    (Serve.Hash.options_digest (with_field ()));
  List.iter
    (fun (field, o) ->
      Alcotest.(check bool)
        (field ^ " changes the options digest")
        false
        (String.equal d (Serve.Hash.options_digest o)))
    flips

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A summary computed without the requests pass must not answer a request
   that asks for it. *)
let test_daemon_requests_option () =
  let source = read_file "../examples/programs/leaky_request.hml" in
  let request id requests =
    request_line ~id ~file:"leaky_request.hml"
      ~options:[ ("requests", requests) ] source
  in
  let daemon = Serve.Daemon.create () in
  let without = response_exn (Serve.Daemon.handle_line daemon (request 1 false)) in
  let warm = response_exn (Serve.Daemon.handle_line daemon (request 2 true)) in
  let cold =
    response_exn
      (Serve.Daemon.handle_line (Serve.Daemon.create ()) (request 2 true))
  in
  Alcotest.(check int) "no request warnings without the pass" 0
    (warnings_of without);
  Alcotest.(check int) "the cold run finds the leak" 3 (warnings_of cold);
  Alcotest.(check string) "warm = cold after the option flips" (payload cold)
    (payload warm);
  ignore
    (Serve.Daemon.handle_line daemon {|{"id":3,"method":"clear"}|});
  Alcotest.(check int) "after clear" 3
    (warnings_of (response_exn (Serve.Daemon.handle_line daemon (request 4 true))))

(* Editing a callee's parameter count re-validates its callers although
   their text, and so their chunk memo, did not change. *)
let test_daemon_callee_arity () =
  let daemon = Serve.Daemon.create () in
  let analyze source =
    Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
      ~file:"arity.hml" source
  in
  ignore (analysis_exn "base" (analyze base_source));
  let edited = replace ~sub:"func leaf()" ~by:"func leaf(extra)" base_source in
  (match analyze edited with
  | Ok _ -> Alcotest.fail "caller of a re-declared leaf should not validate"
  | Error issues ->
      Alcotest.(check (list string))
        "the unchanged caller reports the arity error"
        [ "error: arity.hml:5:3: 'leaf' expects 1 argument(s), got 0" ]
        (List.map Validate.issue_to_string issues));
  ignore (analysis_exn "reverted" (analyze base_source));
  (* Two definitions of one name: both memos stay per chunk. *)
  let dup = base_source ^ "func loner() {\n  MPI_Barrier();\n}\n" in
  (match analyze dup with
  | Ok _ -> Alcotest.fail "duplicate function should not validate"
  | Error issues ->
      Alcotest.(check (list string))
        "duplicate reported once, on the first definition"
        [ "error: arity.hml:7:1: duplicate function 'loner'" ]
        (List.map Validate.issue_to_string issues));
  Alcotest.(check string)
    "duplicate removed: warm = cold" (cold_json base_source)
    (Parcoach.Json_report.to_string
       (analysis_exn "dedup" (analyze base_source)).Serve.Daemon.report)

(* ------------------------------------------------------------------ *)
(* Differential: warm memos = a fresh daemon, over edit sessions       *)
(* ------------------------------------------------------------------ *)

type step =
  | Body of int * int  (** Prepend [compute(marker)] to function [i]. *)
  | Arity of int  (** Toggle an extra parameter on a called function. *)
  | Dup of int  (** Toggle a trailing copy of function [i]. *)
  | Layout of int  (** Leading comment and blank lines. *)
  | Raw of int * int
      (** One request with raw text inserted mid-line in the second line
          of a mid-file function. *)
  | Syntax of bool  (** One request with a broken function appended. *)
  | Only of string  (** One request filtered to a warning class. *)
  | Requests  (** Toggle the requests pass. *)
  | Clear
  | Callee of int
      (** Toggle a leading [MPI_Barrier()] in a called function that calls
          none (any called one when there is no such leaf): every
          transitive caller's summary key moves. *)
  | Edge of int * int
      (** Toggle calls from function [i] to function [j]: append one
          (zero arguments) at the end of [i]'s body, or drop those there. *)
  | Delete of int  (** Delete function [i] and every call to it. *)

let step_to_string = function
  | Body (i, m) -> Printf.sprintf "body %d %d" i m
  | Arity i -> Printf.sprintf "arity %d" i
  | Dup i -> Printf.sprintf "dup %d" i
  | Layout n -> Printf.sprintf "layout %d" n
  | Raw (i, m) -> Printf.sprintf "raw %d %d" i m
  | Syntax b -> Printf.sprintf "syntax %b" b
  | Only c -> Printf.sprintf "only %s" c
  | Requests -> "requests"
  | Clear -> "clear"
  | Callee i -> Printf.sprintf "callee %d" i
  | Edge (i, j) -> Printf.sprintf "edge %d %d" i j
  | Delete i -> Printf.sprintf "delete %d" i

(* A call chain under a rank-dependent branch: whether [main]'s call to
   [helper] is a mismatch warning depends on [leaf] two calls down. *)
let chain_source =
  "func leaf() {\n\
  \  MPI_Barrier();\n\
   }\n\
   func helper() {\n\
  \  leaf();\n\
   }\n\
   func main() {\n\
  \  if (rank() == 0) {\n\
  \    helper();\n\
  \  }\n\
  \  MPI_Barrier();\n\
   }\n"

let session_bases =
  lazy
    (let examples =
       List.filter_map
         (fun name ->
           if Filename.check_suffix name ".hml" then
             Some
               (Parser.parse_file (Filename.concat "../examples/programs" name))
           else None)
         (List.sort String.compare
            (Array.to_list (Sys.readdir "../examples/programs")))
     in
     Array.of_list
       ((parse base_source
        :: List.map
             (fun (e : Benchsuite.Catalog.entry) ->
               e.Benchsuite.Catalog.generate ())
             Benchsuite.Catalog.all)
       @ examples @ [ parse chain_source ]))

let extra_param = "zz_extra"

(* Runs [steps] against one long-lived daemon, comparing each response
   with a fresh daemon's answer to the same request line. *)
let run_session base steps =
  let funcs = ref (Lazy.force session_bases).(base).Ast.funcs in
  let dup = ref None and lead = ref 0 and requests = ref false in
  let daemon = Serve.Daemon.create () in
  let render ?raw () =
    let texts =
      List.map
        (fun f -> Pretty.program_to_string { Ast.funcs = [ f ] })
        (!funcs @ Option.to_list !dup)
    in
    let texts =
      match raw with
      | None -> texts
      | Some (i, m) ->
          (* A function away from both ends when there are three or
             more; the text goes mid-line into its second line: before
             the statement there (moving its column), a comment before
             the line's last byte, or a second statement. *)
          let n = List.length texts in
          let target = if n >= 3 then 1 + (i mod (n - 2)) else i mod n in
          List.mapi
            (fun j text ->
              if j <> target then text
              else
                match String.index_opt text '\n' with
                | None -> text
                | Some nl ->
                    let stop =
                      Option.value ~default:(String.length text)
                        (String.index_from_opt text (nl + 1) '\n')
                    in
                    let indent = ref (nl + 1) in
                    while !indent < stop && text.[!indent] = ' ' do
                      incr indent
                    done;
                    let pos, ins =
                      match m mod 3 with
                      | 0 -> (!indent, Printf.sprintf "/* %d */ " m)
                      | 1 ->
                          (max !indent (stop - 1), Printf.sprintf " /* %d */" m)
                      | _ -> (!indent, Printf.sprintf "compute(%d); " m)
                    in
                    String.sub text 0 pos ^ ins
                    ^ String.sub text pos (String.length text - pos))
            texts
    in
    String.concat "\n"
      ((if !lead = 0 then []
        else [ "// layout" ^ String.make !lead '\n' ])
      @ texts)
  in
  let nth i = List.nth !funcs (i mod List.length !funcs) in
  let update (g : Ast.func) =
    funcs :=
      List.map
        (fun (f : Ast.func) ->
          if String.equal f.Ast.fname g.Ast.fname then g else f)
        !funcs
  in
  let called () =
    let names = List.concat_map Parcoach.Callgraph.callees !funcs in
    List.filter (fun (f : Ast.func) -> List.mem f.Ast.fname names) !funcs
  in
  List.for_all
    (fun step ->
      let only = ref None and extra = ref "" and raw = ref None in
      (match step with
      | Body (i, m) ->
          let f = nth i in
          update
            { f with Ast.body = Ast.mk (Ast.Compute (Ast.Int m)) :: f.Ast.body }
      | Arity i -> (
          match called () with
          | [] -> ()
          | fs ->
              let f = List.nth fs (i mod List.length fs) in
              update
                {
                  f with
                  Ast.params =
                    (if List.mem extra_param f.Ast.params then
                       List.filter (( <> ) extra_param) f.Ast.params
                     else f.Ast.params @ [ extra_param ]);
                })
      | Dup i -> dup := (match !dup with Some _ -> None | None -> Some (nth i))
      | Layout n -> lead := n
      | Raw (i, m) -> raw := Some (i, m)
      | Syntax unbalanced ->
          extra :=
            if unbalanced then "\nfunc broken( {\n"
            else "\nfunc broken() { var = ; }\n"
      | Only c -> only := Some c
      | Requests -> requests := not !requests
      | Clear -> ()
      | Callee i -> (
          let leaves =
            List.filter
              (fun f -> Parcoach.Callgraph.callees f = [])
              (called ())
          in
          match if leaves = [] then called () else leaves with
          | [] -> ()
          | fs ->
              let f = List.nth fs (i mod List.length fs) in
              update
                {
                  f with
                  Ast.body =
                    (match f.Ast.body with
                    | { Ast.sdesc = Ast.Coll (None, Ast.Barrier); _ } :: rest ->
                        rest
                    | body -> Ast.mk (Ast.Coll (None, Ast.Barrier)) :: body);
                })
      | Edge (i, j) ->
          let f = nth i and g = (nth j).Ast.fname in
          let calls_g (s : Ast.stmt) =
            match s.Ast.sdesc with
            | Ast.Call (h, _) -> String.equal h g
            | _ -> false
          in
          update
            {
              f with
              Ast.body =
                (if List.exists calls_g f.Ast.body then
                   List.filter (fun s -> not (calls_g s)) f.Ast.body
                 else
                   f.Ast.body
                   @ [
                       Ast.mk
                         (Ast.Call
                            ( g,
                              List.map (fun _ -> Ast.Int 0) (nth j).Ast.params ));
                     ]);
            }
      | Delete i ->
          if List.length !funcs > 1 then begin
            let g = (nth i).Ast.fname in
            funcs :=
              List.filter_map
                (fun (f : Ast.func) ->
                  if String.equal f.Ast.fname g then None
                  else
                    Some
                      (Ast.map_blocks
                         (List.filter (fun (s : Ast.stmt) ->
                              match s.Ast.sdesc with
                              | Ast.Call (h, _) -> not (String.equal h g)
                              | _ -> true))
                         f))
                !funcs
          end);
      match step with
      | Clear ->
          Serve.Daemon.handle_line daemon {|{"id":0,"method":"clear"}|}
          = {|{"id":0,"ok":true,"cleared":true}|}
      | _ ->
          let line =
            request_line ~id:1 ~file:"session.hml" ?only:!only
              ~options:
                [
                  ("taint_filter", true);
                  ("interprocedural", true);
                  ("races", true);
                  ("requests", !requests);
                ]
              (render ?raw:!raw () ^ !extra)
          in
          let warm = response_exn (Serve.Daemon.handle_line daemon line) in
          let cold =
            response_exn
              (Serve.Daemon.handle_line (Serve.Daemon.create ()) line)
          in
          String.equal (payload warm) (payload cold)
          || QCheck.Test.fail_reportf "step %s: warm %s@.cold %s"
               (step_to_string step) (payload warm) (payload cold))
    steps

(* Every step kind, on every base: a callee's arity edited and restored,
   a duplicate added and removed, layout shifts and raw mid-line edits
   around a filtered request, both kinds of syntax error, the requests
   pass switched on, a clear, a callee's collective toggled (before and
   after the clear), call edges added and dropped, and deletions. *)
let scripted_steps =
  [
    Callee 0;
    Callee 0;
    Edge (0, 1);
    Callee 1;
    Edge (0, 1);
    Body (3, 1);
    Arity 0;
    Body (0, 2);
    Arity 0;
    Dup 1;
    Layout 3;
    Raw (0, 3);
    Raw (1, 4);
    Dup 1;
    Raw (2, 5);
    Only "collective mismatch";
    Syntax true;
    Layout 0;
    Syntax false;
    Requests;
    Body (2, 3);
    Clear;
    Body (2, 4);
    Callee 0;
    Delete 1;
    Edge (2, 0);
    Delete 0;
  ]

let test_daemon_session () =
  Array.iteri
    (fun base _ ->
      Alcotest.(check bool)
        (Printf.sprintf "scripted session on base %d: warm = cold" base)
        true
        (run_session base scripted_steps))
    (Lazy.force session_bases)

let gen_step =
  let open Gen in
  frequency
    [
      (4, map2 (fun i m -> Body (i, m)) nat (int_bound 1000));
      (2, map (fun i -> Arity i) nat);
      (1, map (fun i -> Dup i) nat);
      (2, map (fun n -> Layout n) (int_bound 3));
      (2, map2 (fun i m -> Raw (i, m)) nat (int_bound 1000));
      (1, map (fun b -> Syntax b) bool);
      (1, map (fun c -> Only c) (oneofl Parcoach.Warning.all_classes));
      (1, return Requests);
      (1, return Clear);
      (5, map (fun i -> Callee i) nat);
      (2, map2 (fun i j -> Edge (i, j)) nat nat);
      (1, map (fun i -> Delete i) nat);
    ]

(* Half the sessions run on the call chain (the last base), where a
   stale key two calls up shows in the report. *)
let prop_daemon_sessions =
  QCheck.Test.make ~name:"warm memos = fresh daemon over edit sessions"
    ~count:40
    (QCheck.make
       ~print:(fun (base, steps) ->
         Printf.sprintf "base %d: %s" base
           (String.concat "; " (List.map step_to_string steps)))
       Gen.(
         let last = Array.length (Lazy.force session_bases) - 1 in
         pair
           (frequency [ (1, return last); (1, int_bound last) ])
           (list_size (int_range 4 12) gen_step)))
    (fun (base, steps) -> run_session base steps)

(* The stats response reports the memo hits of warm requests. *)
let test_daemon_memo_stats () =
  let daemon = Serve.Daemon.create () in
  let line = request_line ~id:1 ~file:"stats.hml" base_source in
  ignore (Serve.Daemon.handle_line daemon line);
  ignore (Serve.Daemon.handle_line daemon line);
  let stats =
    response_exn (Serve.Daemon.handle_line daemon {|{"id":2,"method":"stats"}|})
  in
  let get path =
    List.fold_left
      (fun v k -> Option.bind v (Serve.Json.member k))
      (Some stats) path
    |> Fun.flip Option.bind Serve.Json.to_int
  in
  Alcotest.(check (option int)) "chunks" (Some 4) (get [ "chunks" ]);
  Alcotest.(check (option int))
    "validation memo hits" (Some 4)
    (get [ "memo_hits"; "validation" ]);
  Alcotest.(check (option int))
    "fragment memo hits" (Some 4)
    (get [ "memo_hits"; "fragments" ])

(* A full chunk table keeps the chunks of every file's layout: after one
   file's edits overflow it, an identical request for another file is
   answered from that file's layout and parses no chunk (the table's
   size does not move). *)
let test_daemon_chunk_eviction () =
  let daemon = Serve.Daemon.create () in
  let handle line = ignore (Serve.Daemon.handle_line daemon line) in
  let chunks () =
    let stats =
      response_exn
        (Serve.Daemon.handle_line daemon {|{"id":0,"method":"stats"}|})
    in
    match Option.bind (Serve.Json.member "chunks" stats) Serve.Json.to_int with
    | Some n -> n
    | None -> Alcotest.fail "stats without chunks"
  in
  let other = request_line ~id:1 ~file:"other.hml" base_source in
  handle other;
  (* Each edit of [main] adds a text nothing reuses, until the table
     overflows and its size falls. *)
  let rec edit k prev =
    if k > 10_000 then Alcotest.fail "the chunk table never overflowed";
    handle
      (request_line ~id:k ~file:"edited.hml"
         (replace ~sub:"  helper();\n"
            ~by:(Printf.sprintf "  helper();\n  compute(%d);\n" k)
            base_source));
    let n = chunks () in
    if n < prev then n else edit (k + 1) n
  in
  let after = edit 2 (chunks ()) in
  handle other;
  Alcotest.(check int) "no chunk parsed again" after (chunks ())

(* ------------------------------------------------------------------ *)
(* Driver.analyze ?reuse                                               *)
(* ------------------------------------------------------------------ *)

let test_driver_reuse_identity () =
  let program = parse base_source in
  let cold = Parcoach.Driver.analyze ~options:serve_options ~jobs:1 program in
  let by_name =
    List.map (fun (fr : Parcoach.Driver.func_report) -> (fr.Parcoach.Driver.fname, fr)) cold.Parcoach.Driver.funcs
  in
  let full_reuse (f : Ast.func) = List.assoc_opt f.Ast.fname by_name in
  let partial_reuse (f : Ast.func) =
    if String.equal f.Ast.fname "main" then None
    else List.assoc_opt f.Ast.fname by_name
  in
  List.iter
    (fun (label, reuse) ->
      let merged =
        Parcoach.Driver.analyze ~options:serve_options ~jobs:1 ~reuse program
      in
      Alcotest.(check string)
        (label ^ " merge is byte-identical")
        (Parcoach.Json_report.to_string cold)
        (Parcoach.Json_report.to_string merged))
    [ ("full reuse", full_reuse); ("partial reuse", partial_reuse) ]

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_json_string_roundtrip;
      prop_json_escape_spec;
      prop_chunker_roundtrip;
      prop_resplit_equals_split;
      prop_keys_location_insensitive;
      prop_daemon_sessions;
    ]

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json unicode escapes" `Quick test_json_unicode;
        Alcotest.test_case "json parse errors" `Quick test_json_errors;
        Alcotest.test_case "json escapes decode" `Quick test_json_escapes;
        Alcotest.test_case "json raw splice" `Quick test_json_raw_splice;
        Alcotest.test_case "json escape: every byte at every offset" `Quick
          test_json_escape_every_byte;
        Alcotest.test_case "chunker = direct parse" `Quick
          test_chunker_equals_direct;
        Alcotest.test_case "chunker falls back on unclean input" `Quick
          test_chunker_fallback;
        Alcotest.test_case "chunker edge cases are pinned" `Quick
          test_chunker_edge_cases;
        Alcotest.test_case "incremental re-split scans only the edit" `Quick
          test_resplit_incremental;
        Alcotest.test_case "keys ignore comments and blank lines" `Quick
          test_keys_ignore_layout;
        Alcotest.test_case "keys ignore unrelated functions" `Quick
          test_keys_ignore_unrelated;
        Alcotest.test_case "keys track body and callee edits" `Quick
          test_keys_track_bodies;
        Alcotest.test_case "daemon warm report = cold report" `Quick
          test_daemon_warm_identity;
        Alcotest.test_case "daemon rejects invalid sources" `Quick
          test_daemon_invalid_source;
        Alcotest.test_case "serve = a handle_line loop to shutdown or EOF"
          `Quick test_serve_loop;
        Alcotest.test_case "daemon warning-class filter" `Quick
          test_daemon_only_filter;
        Alcotest.test_case "daemon protocol errors" `Quick
          test_daemon_protocol_errors;
        Alcotest.test_case "daemon syntax errors are located issues" `Quick
          test_daemon_syntax_errors;
        Alcotest.test_case "options digest covers every field" `Quick
          test_options_digest_fields;
        Alcotest.test_case "daemon keys summaries by the requests option"
          `Quick test_daemon_requests_option;
        Alcotest.test_case "daemon re-validates callers of a re-declared callee"
          `Quick test_daemon_callee_arity;
        Alcotest.test_case "daemon scripted session warm = cold" `Quick
          test_daemon_session;
        Alcotest.test_case "daemon stats count memo hits" `Quick
          test_daemon_memo_stats;
        Alcotest.test_case "daemon eviction keeps every file's layout" `Quick
          test_daemon_chunk_eviction;
        Alcotest.test_case "Driver.analyze reuse identity" `Quick
          test_driver_reuse_identity;
      ]
      @ qcheck_tests );
  ]

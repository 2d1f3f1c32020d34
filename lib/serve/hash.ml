(** Content hashing for the summary cache (see the interface).

    The serialisation writes one tag character per constructor plus
    length-prefixed strings into a buffer, ignoring every {!Loc.t}, and
    digests the bytes (MD5 via [Digest]).  Tags make the encoding
    prefix-free enough that structurally different ASTs cannot collide by
    concatenation; the final guard against digest collisions is the
    cache's structural {!Minilang.Ast.equal_func} check on hit. *)

open Minilang

let add_str buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let add_int buf n =
  Buffer.add_char buf '#';
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ';'

let add_bool buf b = Buffer.add_char buf (if b then 'T' else 'F')

let unop_tag = function Ast.Neg -> 'n' | Ast.Not -> '!'

let binop_tag = function
  | Ast.Add -> '+'
  | Ast.Sub -> '-'
  | Ast.Mul -> '*'
  | Ast.Div -> '/'
  | Ast.Mod -> '%'
  | Ast.Eq -> '='
  | Ast.Ne -> 'e'
  | Ast.Lt -> '<'
  | Ast.Le -> 'l'
  | Ast.Gt -> '>'
  | Ast.Ge -> 'g'
  | Ast.And -> '&'
  | Ast.Or -> '|'

let rec add_expr buf = function
  | Ast.Int n ->
      Buffer.add_char buf 'I';
      add_int buf n
  | Ast.Bool b ->
      Buffer.add_char buf 'B';
      add_bool buf b
  | Ast.Var x ->
      Buffer.add_char buf 'V';
      add_str buf x
  | Ast.Unop (op, e) ->
      Buffer.add_char buf 'U';
      Buffer.add_char buf (unop_tag op);
      add_expr buf e
  | Ast.Binop (op, a, b) ->
      Buffer.add_char buf 'O';
      Buffer.add_char buf (binop_tag op);
      add_expr buf a;
      add_expr buf b
  | Ast.Rank -> Buffer.add_char buf 'r'
  | Ast.Size -> Buffer.add_char buf 's'
  | Ast.Tid -> Buffer.add_char buf 't'
  | Ast.Nthreads -> Buffer.add_char buf 'h'

let add_expr_opt buf = function
  | None -> Buffer.add_char buf '0'
  | Some e ->
      Buffer.add_char buf '1';
      add_expr buf e

let add_str_opt buf = function
  | None -> Buffer.add_char buf '0'
  | Some s ->
      Buffer.add_char buf '1';
      add_str buf s

let add_rop buf op = add_str buf (Ast.reduce_op_name op)

let add_collective buf c =
  add_str buf (Ast.collective_name c);
  match c with
  | Ast.Barrier -> ()
  | Ast.Bcast { root; value }
  | Ast.Gather { root; value }
  | Ast.Scatter { root; value } ->
      add_expr buf root;
      add_expr buf value
  | Ast.Reduce { op; root; value } ->
      add_rop buf op;
      add_expr buf root;
      add_expr buf value
  | Ast.Allreduce { op; value }
  | Ast.Scan { op; value }
  | Ast.Reduce_scatter { op; value } ->
      add_rop buf op;
      add_expr buf value
  | Ast.Allgather { value } | Ast.Alltoall { value } -> add_expr buf value

let add_check buf = function
  | Ast.Cc_next_collective { color; coll_name } ->
      Buffer.add_char buf 'C';
      add_int buf color;
      add_str buf coll_name
  | Ast.Cc_return -> Buffer.add_char buf 'R'
  | Ast.Assert_monothread { region } ->
      Buffer.add_char buf 'M';
      add_int buf region
  | Ast.Count_enter { region } ->
      Buffer.add_char buf 'E';
      add_int buf region
  | Ast.Count_exit { region } ->
      Buffer.add_char buf 'X';
      add_int buf region

let rec add_stmt buf s =
  match s.Ast.sdesc with
  | Ast.Decl (x, e) ->
      Buffer.add_char buf 'd';
      add_str buf x;
      add_expr buf e
  | Ast.Assign (x, e) ->
      Buffer.add_char buf 'a';
      add_str buf x;
      add_expr buf e
  | Ast.If (c, bt, bf) ->
      Buffer.add_char buf 'i';
      add_expr buf c;
      add_block buf bt;
      add_block buf bf
  | Ast.While (c, b) ->
      Buffer.add_char buf 'w';
      add_expr buf c;
      add_block buf b
  | Ast.For (x, lo, hi, b) ->
      Buffer.add_char buf 'f';
      add_str buf x;
      add_expr buf lo;
      add_expr buf hi;
      add_block buf b
  | Ast.Return -> Buffer.add_char buf 'q'
  | Ast.Call (g, args) ->
      Buffer.add_char buf 'c';
      add_str buf g;
      add_int buf (List.length args);
      List.iter (add_expr buf) args
  | Ast.Compute e ->
      Buffer.add_char buf 'k';
      add_expr buf e
  | Ast.Print e ->
      Buffer.add_char buf 'p';
      add_expr buf e
  | Ast.Coll (tgt, c) ->
      Buffer.add_char buf 'L';
      add_str_opt buf tgt;
      add_collective buf c
  | Ast.Send { value; dest; tag } ->
      Buffer.add_char buf 'S';
      add_expr buf value;
      add_expr buf dest;
      add_expr buf tag
  | Ast.Recv { target; src; tag } ->
      Buffer.add_char buf 'v';
      add_str buf target;
      add_expr buf src;
      add_expr buf tag
  | Ast.Istart { req; rop } -> (
      Buffer.add_char buf 'I';
      add_str buf req;
      match rop with
      | Ast.Ibarrier -> Buffer.add_char buf 'B'
      | Ast.Iallreduce { op; target; value } ->
          Buffer.add_char buf 'A';
          add_rop buf op;
          add_str buf target;
          add_expr buf value
      | Ast.Isend { value; dest; tag } ->
          Buffer.add_char buf 'D';
          add_expr buf value;
          add_expr buf dest;
          add_expr buf tag
      | Ast.Irecv { target; src; tag } ->
          Buffer.add_char buf 'V';
          add_str buf target;
          add_expr buf src;
          add_expr buf tag)
  | Ast.Wait { req } ->
      Buffer.add_char buf 'W';
      add_str buf req
  | Ast.Test { target; req } ->
      Buffer.add_char buf 'T';
      add_str buf target;
      add_str buf req
  | Ast.Omp_parallel { num_threads; body } ->
      Buffer.add_char buf 'P';
      add_expr_opt buf num_threads;
      add_block buf body
  | Ast.Omp_single { nowait; body } ->
      Buffer.add_char buf '1';
      add_bool buf nowait;
      add_block buf body
  | Ast.Omp_master body ->
      Buffer.add_char buf 'm';
      add_block buf body
  | Ast.Omp_critical (name, body) ->
      Buffer.add_char buf 'x';
      add_str_opt buf name;
      add_block buf body
  | Ast.Omp_barrier -> Buffer.add_char buf 'b'
  | Ast.Omp_for { var; lo; hi; nowait; reduction; body } -> (
      Buffer.add_char buf 'o';
      add_str buf var;
      add_expr buf lo;
      add_expr buf hi;
      add_bool buf nowait;
      (match reduction with
      | None -> Buffer.add_char buf '0'
      | Some (op, x) ->
          Buffer.add_char buf '1';
          add_rop buf op;
          add_str buf x);
      add_block buf body)
  | Ast.Omp_sections { nowait; sections } ->
      Buffer.add_char buf 'z';
      add_bool buf nowait;
      add_int buf (List.length sections);
      List.iter (add_block buf) sections
  | Ast.Check ck ->
      Buffer.add_char buf 'K';
      add_check buf ck

and add_block buf b =
  Buffer.add_char buf '{';
  add_int buf (List.length b);
  List.iter (add_stmt buf) b;
  Buffer.add_char buf '}'

let func_digest (f : Ast.func) =
  let buf = Buffer.create 256 in
  add_str buf f.Ast.fname;
  add_int buf (List.length f.Ast.params);
  List.iter (add_str buf) f.Ast.params;
  add_block buf f.Ast.body;
  Digest.string (Buffer.contents buf)

let options_digest (o : Parcoach.Driver.options) =
  let buf = Buffer.create 64 in
  add_int buf (List.length o.Parcoach.Driver.initial_word);
  List.iter
    (fun tok -> add_str buf (Parcoach.Pword.token_to_string tok))
    o.Parcoach.Driver.initial_word;
  add_str buf (Mpisim.Thread_level.to_string o.Parcoach.Driver.provided_level);
  add_bool buf o.Parcoach.Driver.taint_filter;
  add_bool buf o.Parcoach.Driver.interprocedural;
  add_bool buf o.Parcoach.Driver.races;
  add_bool buf o.Parcoach.Driver.requests;
  Digest.string (Buffer.contents buf)

module Strtbl = Hashtbl.Make (String)

(* Names transitively reachable from [fname] through call sites, sorted.
   Unknown callees (rejected by the validator anyway) are skipped;
   recursion terminates because visited names are never re-entered. *)
let reachable callees_of fname =
  match callees_of fname with
  | [] -> []
  | direct ->
      let seen = Strtbl.create 16 in
      let rec visit g =
        if not (Strtbl.mem seen g) then begin
          Strtbl.replace seen g ();
          List.iter visit (callees_of g)
        end
      in
      List.iter visit direct;
      List.sort String.compare (Strtbl.fold (fun g () acc -> g :: acc) seen [])

(* A key hashes the function's digest, the options digest, then each
   reachable name with its digest.  Digests have a fixed width and names
   never contain NUL, so the NUL-terminated names keep the encoding
   prefix-free. *)
let key ~options_digest ~digest_of ~callees_of fname =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (digest_of fname);
  Buffer.add_string buf options_digest;
  List.iter
    (fun g ->
      Buffer.add_string buf g;
      Buffer.add_char buf '\000';
      Buffer.add_string buf (digest_of g))
    (reachable callees_of fname);
  Digest.string (Buffer.contents buf)

let keys ?(digest = fun _ -> None) ~options (program : Ast.program) =
  let digests = Strtbl.create 64 in
  List.iter
    (fun f ->
      Strtbl.replace digests f.Ast.fname
        (match digest f with Some d -> d | None -> func_digest f))
    program.Ast.funcs;
  let calls = Strtbl.create 64 in
  List.iter
    (fun f ->
      Strtbl.replace calls f.Ast.fname
        (List.filter (Strtbl.mem digests) (Parcoach.Callgraph.direct_callees f)))
    program.Ast.funcs;
  let options_digest = options_digest options in
  let digest_of = Strtbl.find digests in
  let callees_of g = Option.value ~default:[] (Strtbl.find_opt calls g) in
  List.map
    (fun f -> (f, key ~options_digest ~digest_of ~callees_of f.Ast.fname))
    program.Ast.funcs

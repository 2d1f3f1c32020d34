(** A mutable block scope: a stack of bindings, newest on top.

    A lookup walks the bindings pushed since the last indexing, newest
    first, then the hash index of the older ones.  The older bindings
    are indexed only once [fresh] bindings pile up above the index, so a
    scope that never holds more than [fresh] bindings walks a short
    stack and never creates a table.

    The index chains each bucket's bindings newest first through the
    bindings themselves.  Bindings leave the stack newest first, so a
    popped indexed binding is always the head of its bucket: [release]
    unindexes it by making the binding it chains to the head. *)

type 'a stack =
  | Empty
  | Bind of {
      name : string;
      value : 'a;
      below : 'a stack;
      mutable chain : 'a stack;
          (* Once indexed: the next older binding of its bucket. *)
    }

type 'a t = {
  mutable top : 'a stack;
  mutable height : int;
  mutable indexed : int;  (* The bottom [indexed] bindings are indexed. *)
  mutable buckets : 'a stack array;  (* Empty until the first indexing. *)
}

type mark = int

(* At most this many bindings sit above the index. *)
let fresh = 8

let create () = { top = Empty; height = 0; indexed = 0; buckets = [||] }

let hash s =
  let h = ref 0 in
  for i = 0 to String.length s - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h lxor (!h lsr 15)

let bucket sc x = hash x land (Array.length sc.buckets - 1)

(* Indexes the top [k] bindings of [s], oldest first, so that each
   bucket chains newest first. *)
let rec index_top sc s k =
  match s with
  | Bind b when k > 0 ->
      index_top sc b.below (k - 1);
      let i = bucket sc b.name in
      b.chain <- sc.buckets.(i);
      sc.buckets.(i) <- s
  | Bind _ | Empty -> ()

(* Indexes the fresh bindings, first in a table of at least one bucket
   per binding. *)
let index_fresh sc =
  if sc.height > Array.length sc.buckets then begin
    sc.buckets <- Array.make (max 64 (2 * Array.length sc.buckets)) Empty;
    sc.indexed <- 0
  end;
  index_top sc sc.top (sc.height - sc.indexed);
  sc.indexed <- sc.height

let bind sc x v =
  if sc.height - sc.indexed >= fresh then index_fresh sc;
  sc.top <- Bind { name = x; value = v; below = sc.top; chain = Empty };
  sc.height <- sc.height + 1

let rec find_chain x = function
  | Bind b as s -> if String.equal b.name x then s else find_chain x b.chain
  | Empty -> Empty

(* [x]'s newest binding among the top [k] of [s], else in the index. *)
let rec find sc x s k =
  match s with
  | Bind b when k > 0 ->
      if String.equal b.name x then s else find sc x b.below (k - 1)
  | Bind _ | Empty ->
      if sc.indexed = 0 then Empty else find_chain x sc.buckets.(bucket sc x)

let find_opt sc x =
  match find sc x sc.top (sc.height - sc.indexed) with
  | Bind b -> Some b.value
  | Empty -> None

let mem sc x = find sc x sc.top (sc.height - sc.indexed) != Empty

let mark sc = sc.height

let release sc m =
  while sc.height > m do
    match sc.top with
    | Empty -> assert false
    | Bind b ->
        if sc.height <= sc.indexed then begin
          sc.buckets.(bucket sc b.name) <- b.chain;
          sc.indexed <- sc.height - 1
        end;
        sc.top <- b.below;
        sc.height <- sc.height - 1
  done

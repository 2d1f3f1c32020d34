(* Int-specialized bounded ring buffer: a blocking, backpressured FIFO
   whose elements are unboxed in a flat array and whose bulk transfers
   are Array.blit copies under one lock — no per-element queue cell, no
   per-element signaling.  The streaming overlay checker moves ~10^6
   interned signature ids through these. *)

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  buf : int array;
  capacity : int;
  mutable head : int;  (* next read position *)
  mutable size : int;
  mutable closed : bool;
}

let create capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    nonfull = Condition.create ();
    buf = Array.make capacity 0;
    capacity;
    head = 0;
    size = 0;
    closed = false;
  }

(* Copy [len] elements from [src.(pos..)] into the ring at its write
   position; caller holds the lock and has checked the room. *)
let unsafe_write t src pos len =
  let tail = (t.head + t.size) mod t.capacity in
  let first = min len (t.capacity - tail) in
  Array.blit src pos t.buf tail first;
  if len > first then Array.blit src (pos + first) t.buf 0 (len - first);
  t.size <- t.size + len

let push_array t src pos len =
  let stop = pos + len in
  let i = ref pos in
  Mutex.lock t.mutex;
  while !i < stop do
    while t.size >= t.capacity && not t.closed do
      Condition.wait t.nonfull t.mutex
    done;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Ring.push_array: ring is closed"
    end;
    let n = min (t.capacity - t.size) (stop - !i) in
    unsafe_write t src !i n;
    i := !i + n;
    Condition.signal t.nonempty
  done;
  Mutex.unlock t.mutex

let push t v = push_array t (Array.make 1 v) 0 1

(* Blocking single pop; [None] once closed and drained. *)
let pop t =
  Mutex.lock t.mutex;
  while t.size = 0 && not t.closed do
    Condition.wait t.nonempty t.mutex
  done;
  let r =
    if t.size = 0 then None
    else begin
      let v = t.buf.(t.head) in
      t.head <- (t.head + 1) mod t.capacity;
      t.size <- t.size - 1;
      Condition.signal t.nonfull;
      Some v
    end
  in
  Mutex.unlock t.mutex;
  r

(* Non-blocking bulk pop into [dst.(pos..)]: up to [max] elements,
   FIFO, one lock; returns the count copied. *)
let pop_into t dst pos max =
  Mutex.lock t.mutex;
  let n = min max t.size in
  if n > 0 then begin
    let first = min n (t.capacity - t.head) in
    Array.blit t.buf t.head dst pos first;
    if n > first then Array.blit t.buf 0 dst (pos + first) (n - first);
    t.head <- (t.head + n) mod t.capacity;
    t.size <- t.size - n;
    Condition.broadcast t.nonfull
  end;
  Mutex.unlock t.mutex;
  n

(* Non-blocking discard of everything queued; returns the count. *)
let drain t =
  Mutex.lock t.mutex;
  let n = t.size in
  t.head <- 0;
  t.size <- 0;
  if n > 0 then Condition.broadcast t.nonfull;
  Mutex.unlock t.mutex;
  n

let is_closed t =
  Mutex.lock t.mutex;
  let c = t.closed in
  Mutex.unlock t.mutex;
  c

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.nonfull;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = t.size in
  Mutex.unlock t.mutex;
  n

(* Record [i] occupies cells [s * width .. s * width + width - 1] of [data],
   where [s = (head + i) land (cap - 1)] is its slot; [cap] is zero or a
   power of two. *)
type t = {
  width : int;
  mutable data : int array;
  mutable cap : int;
  mutable head : int;
  mutable len : int;
}

let create ~width =
  if width < 1 then invalid_arg "Int_ring.create: width must be >= 1";
  { width; data = [||]; cap = 0; head = 0; len = 0 }

let width t = t.width
let length t = t.len

(* Double the capacity, copying the live records to the front. *)
let grow t =
  let cap = Int.max 16 (2 * t.cap) and w = t.width in
  let data = Array.make (cap * w) 0 in
  let first = Int.min t.len (t.cap - t.head) in
  Array.blit t.data (t.head * w) data 0 (first * w);
  Array.blit t.data 0 data (first * w) ((t.len - first) * w);
  t.data <- data;
  t.cap <- cap;
  t.head <- 0

(* First cell of record [i]; callers check [i]. *)
let[@inline] cell t i = ((t.head + i) land (t.cap - 1)) * t.width

let push1 t a =
  if t.len = t.cap then grow t;
  t.data.(cell t t.len) <- a;
  t.len <- t.len + 1

let push2 t a b =
  if t.len = t.cap then grow t;
  let j = cell t t.len in
  t.data.(j) <- a;
  t.data.(j + 1) <- b;
  t.len <- t.len + 1

let push3 t a b c =
  if t.len = t.cap then grow t;
  let j = cell t t.len in
  t.data.(j) <- a;
  t.data.(j + 1) <- b;
  t.data.(j + 2) <- c;
  t.len <- t.len + 1

let get t i col =
  if i < 0 || i >= t.len then invalid_arg "Int_ring.get: no such record";
  t.data.(cell t i + col)

let set t i col v =
  if i < 0 || i >= t.len then invalid_arg "Int_ring.set: no such record";
  t.data.(cell t i + col) <- v

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Int_ring.drop: not that many records";
  if n > 0 then begin
    t.head <- (t.head + n) land (t.cap - 1);
    t.len <- t.len - n
  end

let truncate t n =
  if n < 0 || n > t.len then
    invalid_arg "Int_ring.truncate: not that many records";
  t.len <- n

let clear t =
  t.head <- 0;
  t.len <- 0

(* Blit contiguous runs: neither ring wraps inside a run. *)
let transfer ~src ~dst n =
  if src.width <> dst.width then invalid_arg "Int_ring.transfer: widths differ";
  if src == dst then invalid_arg "Int_ring.transfer: same ring";
  if n < 0 || n > src.len then
    invalid_arg "Int_ring.transfer: not that many records";
  while dst.cap - dst.len < n do
    grow dst
  done;
  let w = src.width in
  let moved = ref 0 in
  while !moved < n do
    let s = (src.head + !moved) land (src.cap - 1)
    and d = (dst.head + dst.len + !moved) land (dst.cap - 1) in
    let run = Int.min (n - !moved) (Int.min (src.cap - s) (dst.cap - d)) in
    Array.blit src.data (s * w) dst.data (d * w) (run * w);
    moved := !moved + run
  done;
  dst.len <- dst.len + n;
  drop src n

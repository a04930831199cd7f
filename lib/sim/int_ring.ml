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

(* A push writes exactly one record: its arity must be the ring's width.
   The slot it writes then lies inside [data], so the stores go unchecked. *)
let[@inline] reserve t ~arity ~fn =
  if t.width <> arity then invalid_arg (fn ^ ": wrong width for this ring");
  if t.len = t.cap then grow t;
  cell t t.len

let push1 t a =
  let j = reserve t ~arity:1 ~fn:"Int_ring.push1" in
  Array.unsafe_set t.data j a;
  t.len <- t.len + 1

let push2 t a b =
  let j = reserve t ~arity:2 ~fn:"Int_ring.push2" in
  Array.unsafe_set t.data j a;
  Array.unsafe_set t.data (j + 1) b;
  t.len <- t.len + 1

let push3 t a b c =
  let j = reserve t ~arity:3 ~fn:"Int_ring.push3" in
  Array.unsafe_set t.data j a;
  Array.unsafe_set t.data (j + 1) b;
  Array.unsafe_set t.data (j + 2) c;
  t.len <- t.len + 1

(* [0 <= i < len] and [0 <= col < width] in one test: each difference is
   negative exactly when its bound fails, and so is their [lor].  A field
   that passes lies inside [data], so the access goes unchecked. *)
let[@inline] in_range t i col =
  i lor (t.len - 1 - i) lor col lor (t.width - 1 - col) >= 0

let get t i col =
  if not (in_range t i col) then invalid_arg "Int_ring.get: no such field";
  Array.unsafe_get t.data (cell t i + col)

let set t i col v =
  if not (in_range t i col) then invalid_arg "Int_ring.set: no such field";
  Array.unsafe_set t.data (cell t i + col) v

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

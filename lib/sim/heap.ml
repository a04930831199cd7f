(* Struct-of-arrays binary min-heap.  Keys, sequence numbers and slot
   numbers live in unboxed int arrays, so the sifts compare and move ints
   only: no pointer chase, no write barrier per level.  Each entry's
   payload sits in [vals] at its slot, written once by [add] and reset to
   [dummy] by [pop], so neither allocates (no option boxing, no result
   tuples on the hot path) and a delivered payload is never pinned.

   [slots] is a permutation of [0 .. capacity - 1]: its first [size] cells
   are the entries' slots in heap order, and the rest are the free slots,
   so [add] takes the slot at [size] and [pop] puts the root's slot back
   there.

   Sifting is hole-based: the displaced entry is held in locals while
   parents (or children) shift into the hole, one store per array per
   level instead of a three-way swap. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  dummy : 'a;
  mutable size : int;
}

let create ~dummy () =
  { keys = [||]; seqs = [||]; slots = [||]; vals = [||]; dummy; size = 0 }

let is_empty t = t.size = 0
let length t = t.size

(* Only when full: every slot is in use, and the new ones are free. *)
let grow t =
  let old = Array.length t.keys in
  let cap = Int.max 16 (2 * old) in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 in
  let slots = Array.init cap Fun.id and vals = Array.make cap t.dummy in
  Array.blit t.keys 0 keys 0 old;
  Array.blit t.seqs 0 seqs 0 old;
  Array.blit t.slots 0 slots 0 old;
  Array.blit t.vals 0 vals 0 old;
  t.keys <- keys;
  t.seqs <- seqs;
  t.slots <- slots;
  t.vals <- vals

let add t ~key ~seq value =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.size) in
  t.vals.(slot) <- value;
  let i = ref t.size in
  t.size <- t.size + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if key < keys.(p) || (key = keys.(p) && seq < seqs.(p)) then begin
      keys.(!i) <- keys.(p);
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else sifting := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let min_key t =
  if t.size = 0 then invalid_arg "Heap.min_key: empty";
  t.keys.(0)

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty";
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let root = slots.(0) in
  let v = t.vals.(root) in
  t.vals.(root) <- t.dummy;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* sift the displaced last entry down from the root *)
    let key = keys.(n) and seq = seqs.(n) and slot = slots.(n) in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if keys.(c) < key || (keys.(c) = key && seqs.(c) < seq) then begin
          keys.(!i) <- keys.(c);
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else sifting := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end;
  slots.(n) <- root;
  v

let pop_min t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) and seq = t.seqs.(0) in
    Some (key, seq, pop t)
  end

let clear t =
  Array.fill t.vals 0 (Array.length t.vals) t.dummy;
  t.size <- 0

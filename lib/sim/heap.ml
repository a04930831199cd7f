(* Struct-of-arrays binary min-heap.  Keys and sequence numbers live in
   unboxed int arrays so the sift comparisons never chase a pointer; the
   payloads sit in a parallel array initialized with a caller-supplied
   [dummy], so neither [add] nor [pop] allocates (no option boxing, no
   result tuples on the hot path).  Popped slots are reset to [dummy] so a
   dead payload is never pinned until the next overwrite.

   Sifting is hole-based: the displaced element is held in locals while
   parents (or children) shift into the hole, one array store per level
   instead of a three-way swap. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  dummy : 'a;
  mutable size : int;
}

let create ~dummy () = { keys = [||]; seqs = [||]; vals = [||]; dummy; size = 0 }

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let cap = max 16 (2 * Array.length t.keys) in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 in
  let vals = Array.make cap t.dummy in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.vals <- vals

let add t ~key ~seq value =
  if t.size = Array.length t.keys then grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if key < t.keys.(p) || (key = t.keys.(p) && seq < t.seqs.(p)) then begin
      t.keys.(!i) <- t.keys.(p);
      t.seqs.(!i) <- t.seqs.(p);
      t.vals.(!i) <- t.vals.(p);
      i := p
    end
    else sifting := false
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- value

let min_key t =
  if t.size = 0 then invalid_arg "Heap.min_key: empty";
  t.keys.(0)

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty";
  let v = t.vals.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n = 0 then t.vals.(0) <- t.dummy
  else begin
    (* sift the displaced last element down from the root *)
    let key = t.keys.(n) and seq = t.seqs.(n) and value = t.vals.(n) in
    t.vals.(n) <- t.dummy;
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
            && (t.keys.(r) < t.keys.(l)
               || (t.keys.(r) = t.keys.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        if t.keys.(c) < key || (t.keys.(c) = key && t.seqs.(c) < seq) then begin
          t.keys.(!i) <- t.keys.(c);
          t.seqs.(!i) <- t.seqs.(c);
          t.vals.(!i) <- t.vals.(c);
          i := c
        end
        else sifting := false
      end
    done;
    t.keys.(!i) <- key;
    t.seqs.(!i) <- seq;
    t.vals.(!i) <- value
  end;
  v

let pop_min t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) and seq = t.seqs.(0) in
    Some (key, seq, pop t)
  end

let clear t =
  Array.fill t.vals 0 t.size t.dummy;
  t.size <- 0

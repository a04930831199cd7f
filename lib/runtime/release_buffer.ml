open Memhog_sim

(* Tags are dense non-negative site ids, so per-tag state lives in
   tag-indexed int arrays.  A tag's pages wait in its own int ring, FIFO.
   A tag with buffered pages is linked into its priority level: a
   doubly-linked list of tags in insertion order through [next] and [prev],
   so appending a tag and retiring an emptied one are both O(1).  The
   levels form a small array sorted by priority, lowest first; a level is
   removed when its last tag empties. *)
type t = {
  mutable prio : int array;  (* tag -> its level's priority, 0 = not queued *)
  mutable next : int array;  (* tag -> next tag of its level, or [no_tag] *)
  mutable prev : int array;
  mutable pages : Int_ring.t array;  (* tag -> its buffered pages *)
  mutable lv_prio : int array;
  mutable lv_head : int array;
  mutable lv_tail : int array;
  mutable levels : int;
  mutable total : int;
}

let no_tag = -1

let create () =
  {
    prio = [||];
    next = [||];
    prev = [||];
    pages = [||];
    lv_prio = [||];
    lv_head = [||];
    lv_tail = [||];
    levels = 0;
    total = 0;
  }

let grow_tags t tag =
  let n = Array.length t.prio in
  let cap = Int.max (tag + 1) (Int.max 16 (2 * n)) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.prio <- extend t.prio 0;
  t.next <- extend t.next no_tag;
  t.prev <- extend t.prev no_tag;
  let old = t.pages in
  t.pages <-
    Array.init cap (fun i -> if i < n then old.(i) else Int_ring.create ~width:1)

(* Index of the level at [priority], inserting an empty one in order when
   there is none. *)
let level t priority =
  let i = ref 0 in
  while !i < t.levels && t.lv_prio.(!i) < priority do
    incr i
  done;
  let i = !i in
  if i < t.levels && t.lv_prio.(i) = priority then i
  else begin
    if t.levels = Array.length t.lv_prio then begin
      let cap = Int.max 8 (2 * t.levels) in
      let extend a =
        let b = Array.make cap no_tag in
        Array.blit a 0 b 0 t.levels;
        b
      in
      t.lv_prio <- extend t.lv_prio;
      t.lv_head <- extend t.lv_head;
      t.lv_tail <- extend t.lv_tail
    end;
    let shift a = Array.blit a i a (i + 1) (t.levels - i) in
    shift t.lv_prio;
    shift t.lv_head;
    shift t.lv_tail;
    t.lv_prio.(i) <- priority;
    t.lv_head.(i) <- no_tag;
    t.lv_tail.(i) <- no_tag;
    t.levels <- t.levels + 1;
    i
  end

let add t ~tag ~priority ~vpn =
  if priority <= 0 then invalid_arg "Release_buffer.add: priority must be > 0";
  if tag < 0 then invalid_arg "Release_buffer.add: negative tag";
  if tag >= Array.length t.prio then grow_tags t tag;
  let p = t.prio.(tag) in
  if p = 0 then begin
    let i = level t priority in
    t.prio.(tag) <- priority;
    let tail = t.lv_tail.(i) in
    if tail = no_tag then t.lv_head.(i) <- tag
    else begin
      t.next.(tail) <- tag;
      t.prev.(tag) <- tail
    end;
    t.lv_tail.(i) <- tag
  end
  else if p <> priority then
    invalid_arg "Release_buffer.add: tag reused with a different priority";
  Int_ring.push1 t.pages.(tag) vpn;
  t.total <- t.total + 1

let total t = t.total

(* Unlink an emptied tag from the lowest level, and drop the level when
   it empties. *)
let unlink_lowest t q =
  let p = t.prev.(q) and n = t.next.(q) in
  if p = no_tag then t.lv_head.(0) <- n else t.next.(p) <- n;
  if n = no_tag then t.lv_tail.(0) <- p else t.prev.(n) <- p;
  t.prev.(q) <- no_tag;
  t.next.(q) <- no_tag;
  t.prio.(q) <- 0;
  if t.lv_head.(0) = no_tag then begin
    let shift a = Array.blit a 1 a 0 (t.levels - 1) in
    shift t.lv_prio;
    shift t.lv_head;
    shift t.lv_tail;
    t.levels <- t.levels - 1
  end

(* One page from each tag of the lowest level, round-robin in tag insertion
   order, until the budget is spent or the level empties; then the next
   level.  Emptied tags are unlinked as the cursor passes them, and the
   last tag of a level has no successor, so the cursor restarts at the
   next level's head. *)
let pop_lowest t ~max:limit out =
  if Int_ring.width out <> 3 then
    invalid_arg "Release_buffer.pop_lowest: output ring must have width 3";
  let n = ref 0 and cursor = ref no_tag in
  while !n < limit && t.levels > 0 do
    if !cursor = no_tag then cursor := t.lv_head.(0)
    else begin
      let q = !cursor in
      let next = t.next.(q) and r = t.pages.(q) in
      Int_ring.push3 out (Int_ring.get r 0 0) q t.lv_prio.(0);
      Int_ring.drop r 1;
      incr n;
      t.total <- t.total - 1;
      if Int_ring.length r = 0 then unlink_lowest t q;
      cursor := next
    end
  done

open Memhog_sim

type pte =
  | Untouched
  | Resident of int
  | On_free_list of int
  | Swapped
  | In_transit of unit Ivar.t

(* Packed page-table entries: state tag in the low 3 bits, frame number in
   the bits above.  Every value is an immediate OCaml int, so a PTE state
   transition is a plain array store — no [Resident of int] block allocated
   per transition on the fault/release/daemon hot paths.  [In_transit] is
   the one state that carries a pointer (the ivar other accessors wait on);
   its word stores only the tag and the ivar lives in the address space's
   [transit] side table, keyed by vpn — in-transit is a rare, transient
   state (one entry per in-flight disk read), so the table stays tiny. *)
module Pte = struct
  let tag_untouched = 0
  let tag_swapped = 1
  let tag_resident = 2
  let tag_on_free_list = 3
  let tag_in_transit = 4

  let untouched = tag_untouched
  let swapped = tag_swapped
  let in_transit = tag_in_transit

  let max_frame = max_int lsr 3

  let resident f = tag_resident lor (f lsl 3)
  let on_free_list f = tag_on_free_list lor (f lsl 3)
  let tag p = p land 7
  let frame p = p lsr 3
end

type segment = {
  seg_name : string;
  base_vpn : int;
  npages : int;
  swap_base : int;
}

type t = {
  pid : int;
  as_name : string;
  as_lock : Semaphore.t;
  tlb : Tlb.t;
  mutable seg_arr : segment array;
  mutable nsegs : int;
  mutable ptes : int array array;
  mutable bits : Bytes.t array;
  transit : (int, unit Ivar.t) Hashtbl.t;
  mutable rss : int;
  stats : Vm_stats.proc;
  mutable current_usage : int;
  mutable upper_limit : int;
  mutable next_vpn : int;
}

(* A leaf covers [leaf_pages] consecutive vpns: [vpn lsr leaf_bits] picks
   it, [vpn land leaf_mask] the entry. *)
let leaf_bits = 10
let leaf_pages = 1 lsl leaf_bits
let leaf_mask = leaf_pages - 1

let create ~pid ~name =
  {
    pid;
    as_name = name;
    as_lock = Semaphore.create ~name:(Printf.sprintf "as-lock:%s" name) 1;
    tlb = Tlb.create ~entries:Config.tlb_entries;
    seg_arr = [||];
    nsegs = 0;
    ptes = [||];
    bits = [||];
    transit = Hashtbl.create 8;
    rss = 0;
    stats = Vm_stats.create_proc ();
    current_usage = 0;
    upper_limit = max_int;
    next_vpn = 0;
  }

(* Append [x] at index [n], doubling [arr] when full; only the spine is
   copied, never what its slots point to. *)
let append arr n x =
  let arr =
    if n < Array.length arr then arr
    else begin
      let grown = Array.make (Int.max 8 (2 * n)) x in
      Array.blit arr 0 grown 0 n;
      grown
    end
  in
  arr.(n) <- x;
  arr

let add_segment t ~name ~npages ~swap_base ~on_swap =
  if npages <= 0 then invalid_arg "Address_space.add_segment: npages <= 0";
  let seg = { seg_name = name; base_vpn = t.next_vpn; npages; swap_base } in
  let last = t.next_vpn + npages in
  (* New leaves start untouched and clear; the entries already mapped stay
     where they are. *)
  let nleaves = ref ((t.next_vpn + leaf_mask) lsr leaf_bits) in
  while !nleaves lsl leaf_bits < last do
    t.ptes <- append t.ptes !nleaves (Array.make leaf_pages Pte.untouched);
    t.bits <- append t.bits !nleaves (Bytes.make (leaf_pages / 8) '\000');
    incr nleaves
  done;
  if on_swap then
    for vpn = t.next_vpn to last - 1 do
      t.ptes.(vpn lsr leaf_bits).(vpn land leaf_mask) <- Pte.swapped
    done;
  t.next_vpn <- last;
  t.seg_arr <- append t.seg_arr t.nsegs seg;
  t.nsegs <- t.nsegs + 1;
  seg

let[@inline] mapped t ~vpn = vpn >= 0 && vpn < t.next_vpn

let unmapped vpn =
  invalid_arg (Printf.sprintf "Address_space: vpn %d is unmapped" vpn)

(* Every table access is checked once against [mapped]: a vpn below
   [next_vpn] has its leaf, so the reads behind the check need none. *)
let[@inline] check t vpn = if not (mapped t ~vpn) then unmapped vpn

let[@inline] leaf t vpn = Array.unsafe_get t.ptes (vpn lsr leaf_bits)

(* Raw (packed) PTE access — the hot-path API.  [set_raw] refuses the
   in-transit tag because that state needs an ivar: use [set_in_transit].
   Overwriting an in-transit word drops its side-table entry, so the table
   never leaks completed transits. *)

let[@inline] get_raw t ~vpn =
  check t vpn;
  Array.unsafe_get (leaf t vpn) (vpn land leaf_mask)

let set_raw t ~vpn p =
  if Pte.tag p = Pte.tag_in_transit then
    invalid_arg "Address_space.set_raw: use set_in_transit";
  check t vpn;
  let l = leaf t vpn and i = vpn land leaf_mask in
  if Pte.tag (Array.unsafe_get l i) = Pte.tag_in_transit then
    Hashtbl.remove t.transit vpn;
  Array.unsafe_set l i p

let set_in_transit t ~vpn ivar =
  check t vpn;
  Hashtbl.replace t.transit vpn ivar;
  Array.unsafe_set (leaf t vpn) (vpn land leaf_mask) Pte.in_transit

let transit_ivar t ~vpn =
  check t vpn;
  Hashtbl.find t.transit vpn

(* Variant view, for tests and cold paths. *)

let get_pte t ~vpn =
  let p = get_raw t ~vpn in
  let tag = Pte.tag p in
  if tag = Pte.tag_untouched then Untouched
  else if tag = Pte.tag_swapped then Swapped
  else if tag = Pte.tag_resident then Resident (Pte.frame p)
  else if tag = Pte.tag_on_free_list then On_free_list (Pte.frame p)
  else In_transit (Hashtbl.find t.transit vpn)

let set_pte t ~vpn pte =
  match pte with
  | Untouched -> set_raw t ~vpn Pte.untouched
  | Swapped -> set_raw t ~vpn Pte.swapped
  | Resident f -> set_raw t ~vpn (Pte.resident f)
  | On_free_list f -> set_raw t ~vpn (Pte.on_free_list f)
  | In_transit ivar -> set_in_transit t ~vpn ivar

(* The segment holding [vpn] is the one with the greatest [base_vpn] at or
   below it: segments tile [0, next_vpn). *)
let swap_page t ~vpn =
  check t vpn;
  let lo = ref 0 and hi = ref (t.nsegs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.seg_arr.(mid).base_vpn <= vpn then lo := mid else hi := mid - 1
  done;
  let seg = t.seg_arr.(!lo) in
  seg.swap_base + (vpn - seg.base_vpn)

let[@inline] bit t ~vpn =
  check t vpn;
  let o = vpn land leaf_mask in
  Char.code (Bytes.unsafe_get (Array.unsafe_get t.bits (vpn lsr leaf_bits)) (o lsr 3))
  land (1 lsl (o land 7))
  <> 0

let set_bit t ~vpn value =
  check t vpn;
  let b = Array.unsafe_get t.bits (vpn lsr leaf_bits)
  and o = vpn land leaf_mask in
  let byte = Char.code (Bytes.unsafe_get b (o lsr 3)) in
  let mask = 1 lsl (o land 7) in
  let byte = if value then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set b (o lsr 3) (Char.unsafe_chr byte)

let resident_pages t =
  let n = ref 0 in
  for vpn = 0 to t.next_vpn - 1 do
    if Pte.tag (get_raw t ~vpn) = Pte.tag_resident then incr n
  done;
  !n

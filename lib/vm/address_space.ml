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
   its word stores only the tag and the ivar lives in the segment's
   [transit] side table, keyed by page offset — in-transit is a rare,
   transient state (one entry per in-flight disk read), so the table stays
   tiny. *)
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
  ptes : int array;  (* packed [Pte] words *)
  transit : (int, unit Ivar.t) Hashtbl.t;  (* page offset -> waiters *)
  bits : Bytes.t;
  mutable pm_attached : bool;
}

type t = {
  pid : int;
  as_name : string;
  as_lock : Semaphore.t;
  tlb : Tlb.t;
  mutable seg_arr : segment array;
  mutable nsegs : int;
  mutable last_hit : int;
  mutable rss : int;
  stats : Vm_stats.proc;
  mutable current_usage : int;
  mutable upper_limit : int;
  mutable next_vpn : int;
}

(* A placeholder for unused [seg_arr] slots, so growth never retains a
   stale segment (and all its page tables) beyond [nsegs]. *)
let dummy_segment =
  {
    seg_name = "<unmapped>";
    base_vpn = -1;
    npages = 0;
    swap_base = 0;
    ptes = [||];
    transit = Hashtbl.create 1;
    bits = Bytes.empty;
    pm_attached = false;
  }

let create ?(tlb_entries = 64) ~pid ~name () =
  {
    pid;
    as_name = name;
    as_lock = Semaphore.create ~name:(Printf.sprintf "as-lock:%s" name) 1;
    tlb = Tlb.create ~entries:tlb_entries;
    seg_arr = [||];
    nsegs = 0;
    last_hit = 0;
    rss = 0;
    stats = Vm_stats.create_proc ();
    current_usage = 0;
    upper_limit = max_int;
    next_vpn = 0;
  }

let add_segment t ~name ~npages ~swap_base ~on_swap =
  if npages <= 0 then invalid_arg "Address_space.add_segment: npages <= 0";
  let seg =
    {
      seg_name = name;
      base_vpn = t.next_vpn;
      npages;
      swap_base;
      ptes = Array.make npages (if on_swap then Pte.swapped else Pte.untouched);
      transit = Hashtbl.create 8;
      bits = Bytes.make ((npages + 7) / 8) '\000';
      pm_attached = false;
    }
  in
  t.next_vpn <- t.next_vpn + npages;
  (* Amortized O(1) append; [base_vpn] is monotonically increasing, so the
     array stays sorted by construction. *)
  if t.nsegs = Array.length t.seg_arr then begin
    let cap = Int.max 8 (2 * Array.length t.seg_arr) in
    let arr = Array.make cap dummy_segment in
    Array.blit t.seg_arr 0 arr 0 t.nsegs;
    t.seg_arr <- arr
  end;
  t.seg_arr.(t.nsegs) <- seg;
  t.nsegs <- t.nsegs + 1;
  seg

let attach_pm _t seg = seg.pm_attached <- true

let iter_segments t f =
  for i = 0 to t.nsegs - 1 do
    f t.seg_arr.(i)
  done

let fold_segments t ~init f =
  let acc = ref init in
  for i = 0 to t.nsegs - 1 do
    acc := f !acc t.seg_arr.(i)
  done;
  !acc

let segments t =
  List.rev (fold_segments t ~init:[] (fun acc seg -> seg :: acc))

(* Every page translation funnels through here, so this is the hottest
   lookup in the VM: check the last segment hit (sequential sweeps stay in
   one segment for thousands of touches), then binary-search the sorted
   array. *)
let find_segment t ~vpn =
  if t.nsegs = 0 then raise Not_found;
  let seg = t.seg_arr.(t.last_hit) in
  if vpn >= seg.base_vpn && vpn < seg.base_vpn + seg.npages then seg
  else begin
    (* greatest base_vpn <= vpn *)
    let lo = ref 0 and hi = ref (t.nsegs - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if t.seg_arr.(mid).base_vpn <= vpn then begin
        found := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !found < 0 then raise Not_found;
    let seg = t.seg_arr.(!found) in
    if vpn < seg.base_vpn + seg.npages then begin
      t.last_hit <- !found;
      seg
    end
    else raise Not_found
  end

let off seg vpn =
  let o = vpn - seg.base_vpn in
  if o < 0 || o >= seg.npages then
    invalid_arg
      (Printf.sprintf "Address_space: vpn %d outside segment %s" vpn seg.seg_name);
  o

(* Raw (packed) PTE access — the hot-path API.  [set_raw] refuses the
   in-transit tag because that state needs an ivar: use [set_in_transit].
   Overwriting an in-transit word drops its side-table entry, so the table
   never leaks completed transits. *)

let get_raw seg ~vpn = seg.ptes.(off seg vpn)

let set_raw seg ~vpn p =
  if Pte.tag p = Pte.tag_in_transit then
    invalid_arg "Address_space.set_raw: use set_in_transit";
  let o = off seg vpn in
  if Pte.tag seg.ptes.(o) = Pte.tag_in_transit then Hashtbl.remove seg.transit o;
  seg.ptes.(o) <- p

let set_in_transit seg ~vpn ivar =
  let o = off seg vpn in
  Hashtbl.replace seg.transit o ivar;
  seg.ptes.(o) <- Pte.in_transit

let transit_ivar seg ~vpn = Hashtbl.find seg.transit (off seg vpn)

(* Variant view, for tests and cold paths. *)

let decode seg o p =
  let tag = Pte.tag p in
  if tag = Pte.tag_untouched then Untouched
  else if tag = Pte.tag_swapped then Swapped
  else if tag = Pte.tag_resident then Resident (Pte.frame p)
  else if tag = Pte.tag_on_free_list then On_free_list (Pte.frame p)
  else In_transit (Hashtbl.find seg.transit o)

let get_pte seg ~vpn =
  let o = off seg vpn in
  decode seg o seg.ptes.(o)

let set_pte seg ~vpn pte =
  match pte with
  | Untouched -> set_raw seg ~vpn Pte.untouched
  | Swapped -> set_raw seg ~vpn Pte.swapped
  | Resident f -> set_raw seg ~vpn (Pte.resident f)
  | On_free_list f -> set_raw seg ~vpn (Pte.on_free_list f)
  | In_transit ivar -> set_in_transit seg ~vpn ivar

let swap_page seg ~vpn = seg.swap_base + off seg vpn

let bit seg ~vpn =
  let o = off seg vpn in
  Char.code (Bytes.get seg.bits (o / 8)) land (1 lsl (o mod 8)) <> 0

let set_bit seg ~vpn value =
  let o = off seg vpn in
  let byte = Char.code (Bytes.get seg.bits (o / 8)) in
  let mask = 1 lsl (o mod 8) in
  let byte = if value then byte lor mask else byte land lnot mask in
  Bytes.set seg.bits (o / 8) (Char.chr byte)

let resident_pages t =
  fold_segments t ~init:0 (fun acc seg ->
      let n = ref acc in
      Array.iter
        (fun p -> if Pte.tag p = Pte.tag_resident then incr n)
        seg.ptes;
      !n)

(** Per-process virtual address space: segments, page-table entries, and the
    PagingDirected shared page (residency bitmap + usage words).

    A process's data lives in named segments (one per application array in
    practice), each a contiguous range of virtual pages backed by a
    contiguous range of swap pages.  The "shared page" of section 3.1.1 is
    modelled by per-segment bit vectors plus the [current_usage] /
    [upper_limit] words; the OS updates them, applications (the run-time
    layer) read them. *)

type pte =
  | Untouched            (** never referenced: zero-filled on first touch *)
  | Resident of int      (** frame index *)
  | On_free_list of int  (** freed, but contents still intact in this frame *)
  | Swapped              (** contents only on swap *)
  | In_transit of unit Memhog_sim.Ivar.t
      (** a hard fault or prefetch is bringing the page in; other accessors
          wait on the ivar *)

(** Packed PTE words: state tag in the low 3 bits, frame number above.
    Every value is an immediate int, so a state transition is a plain array
    store with no per-transition allocation.  The in-transit tag carries no
    frame; its ivar lives in the segment's side table (see
    {!set_in_transit}/{!transit_ivar}). *)
module Pte : sig
  val tag_untouched : int
  val tag_swapped : int
  val tag_resident : int
  val tag_on_free_list : int
  val tag_in_transit : int

  val untouched : int
  (** the packed untouched word *)

  val swapped : int
  (** the packed swapped word *)

  val in_transit : int
  (** the packed in-transit word (tag only) *)

  val max_frame : int
  (** largest encodable frame number *)

  val resident : int -> int
  (** [resident f] packs frame [f] *)

  val on_free_list : int -> int
  (** [on_free_list f] packs frame [f] *)

  val tag : int -> int
  (** low 3 bits *)

  val frame : int -> int
  (** bits above the tag *)
end

type segment = {
  seg_name : string;
  base_vpn : int;
  npages : int;
  swap_base : int;
  ptes : int array;           (** packed {!Pte} words *)
  transit : (int, unit Memhog_sim.Ivar.t) Hashtbl.t;
      (** page offset -> ivar for in-transit pages (rare, transient) *)
  bits : Bytes.t;             (** residency bitmap (shared page) *)
  mutable pm_attached : bool; (** PagingDirected policy module connected *)
}

type t = {
  pid : int;
  as_name : string;
  as_lock : Memhog_sim.Semaphore.t;
  tlb : Tlb.t;
  mutable seg_arr : segment array;  (** sorted by [base_vpn]; [nsegs] live *)
  mutable nsegs : int;
  mutable last_hit : int;           (** index of the last [find_segment] hit *)
  mutable rss : int;                (** resident pages *)
  stats : Vm_stats.proc;
  mutable current_usage : int;      (** shared-page word, updated lazily *)
  mutable upper_limit : int;        (** shared-page word, updated lazily *)
  mutable next_vpn : int;
}

val create : ?tlb_entries:int -> pid:int -> name:string -> unit -> t

val add_segment :
  t -> name:string -> npages:int -> swap_base:int -> on_swap:bool -> segment
(** Allocate [npages] of fresh virtual address space.  [on_swap] marks the
    pages as having initial contents on swap (out-of-core input data);
    otherwise first touch zero-fills. *)

val attach_pm : t -> segment -> unit

val segments : t -> segment list
(** The mapped segments in [base_vpn] order.  Allocates a fresh list per
    call. *)

val find_segment : t -> vpn:int -> segment
(** Raises [Not_found] for an unmapped page.  O(1) when [vpn] lands in the
    segment of the previous hit (the common case: sweeps are sequential),
    O(log n segments) binary search otherwise — this is the per-translation
    hot path for every touch, prefetch, release and daemon scan. *)

val get_pte : segment -> vpn:int -> pte
(** Decoded view of the packed word (cold paths, tests). *)

val set_pte : segment -> vpn:int -> pte -> unit
(** Encode and store; [In_transit] routes through {!set_in_transit}. *)

val get_raw : segment -> vpn:int -> int
(** The packed {!Pte} word — the allocation-free hot-path read. *)

val set_raw : segment -> vpn:int -> int -> unit
(** Store a packed word.  Overwriting an in-transit entry drops its ivar
    from the side table.
    @raise Invalid_argument for the in-transit tag: use {!set_in_transit}. *)

val set_in_transit : segment -> vpn:int -> unit Memhog_sim.Ivar.t -> unit
(** Mark the page in transit and register the ivar accessors wait on. *)

val transit_ivar : segment -> vpn:int -> unit Memhog_sim.Ivar.t
(** The waiting ivar of an in-transit page.
    @raise Not_found when the page is not in transit. *)

val swap_page : segment -> vpn:int -> int

val bit : segment -> vpn:int -> bool
val set_bit : segment -> vpn:int -> bool -> unit

val resident_pages : t -> int
(** Recount of [Resident] PTEs (for invariant checks; [rss] is the running
    counter).  [In_transit] pages are not counted: a frame is charged to
    the resident set only once it is installed. *)

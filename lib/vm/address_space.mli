(** Per-process virtual address space: one page table, indexed by virtual
    page number, and the PagingDirected shared page (residency bitmap +
    usage words).

    A process's data lives in named segments (one per application array in
    practice), each a contiguous range of virtual pages backed by a
    contiguous range of swap pages.  Segments are laid end to end from vpn
    0, so a vpn is mapped exactly when it is below [next_vpn].

    The process has one table, not one per segment.  The "shared page" of
    section 3.1.1 holds "a residency bitmap indexed by virtual page
    number", and so does this table: the PTE words and the residency bits
    are both found from the vpn alone, [vpn lsr 10] picking a 1024-page
    leaf and [vpn land 1023] the entry, so a touch, a bitmap check or a
    prefetch costs a range check and two loads, with no segment search.
    The OS updates the bitmap and the [current_usage] / [upper_limit]
    words; applications (the run-time layer) read them.

    Leaves are allocated as segments are added and never reallocated:
    mapping a segment adds leaves for its range and copies only the
    directory of leaf pointers, so a process that maps a small array after
    a large one does not copy, or briefly hold twice, the large one's
    entries. *)

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
    frame; its ivar lives in the address space's side table (see
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
  base_vpn : int;     (** first vpn *)
  npages : int;
  swap_base : int;    (** swap page of [base_vpn] *)
}
(** A mapped range's descriptor.  Its entries live in the address space's
    table, at [base_vpn .. base_vpn + npages - 1]. *)

type t = {
  pid : int;
  as_name : string;
  as_lock : Memhog_sim.Semaphore.t;
  tlb : Tlb.t;
  mutable seg_arr : segment array;  (** by [base_vpn]; [nsegs] live *)
  mutable nsegs : int;
  mutable ptes : int array array;
      (** packed {!Pte} words, in leaves of 1024 vpns *)
  mutable bits : Bytes.t array;     (** residency bitmap, in the same leaves *)
  transit : (int, unit Memhog_sim.Ivar.t) Hashtbl.t;
      (** vpn -> ivar for in-transit pages (rare, transient) *)
  mutable rss : int;                (** resident pages *)
  stats : Vm_stats.proc;
  mutable current_usage : int;      (** shared-page word, updated lazily *)
  mutable upper_limit : int;        (** shared-page word, updated lazily *)
  mutable next_vpn : int;           (** vpns [0 .. next_vpn - 1] are mapped *)
}

val leaf_pages : int
(** vpns per leaf of the page table (1024). *)

val create : pid:int -> name:string -> t
(** An empty address space with a {!Config.tlb_entries}-entry TLB. *)

val add_segment :
  t -> name:string -> npages:int -> swap_base:int -> on_swap:bool -> segment
(** Map [npages] of fresh virtual address space at [next_vpn].  [on_swap]
    marks the pages as having initial contents on swap (out-of-core input
    data); otherwise first touch zero-fills.  Adds leaves for the new
    range and never moves an existing one. *)

val mapped : t -> vpn:int -> bool
(** [0 <= vpn < next_vpn].  Every function below raises
    [Invalid_argument] on an unmapped [vpn]. *)

val get_pte : t -> vpn:int -> pte
(** Decoded view of the packed word (cold paths, tests). *)

val set_pte : t -> vpn:int -> pte -> unit
(** Encode and store; [In_transit] routes through {!set_in_transit}. *)

val get_raw : t -> vpn:int -> int
(** The packed {!Pte} word — the allocation-free hot-path read. *)

val set_raw : t -> vpn:int -> int -> unit
(** Store a packed word.  Overwriting an in-transit entry drops its ivar
    from the side table.
    @raise Invalid_argument for the in-transit tag: use {!set_in_transit}. *)

val set_in_transit : t -> vpn:int -> unit Memhog_sim.Ivar.t -> unit
(** Mark the page in transit and register the ivar accessors wait on. *)

val transit_ivar : t -> vpn:int -> unit Memhog_sim.Ivar.t
(** The waiting ivar of an in-transit page.
    @raise Not_found when the page is not in transit. *)

val swap_page : t -> vpn:int -> int
(** The page's swap slot.  The one lookup that searches the segments
    (binary search): it runs only when a page moves to or from the backing
    store. *)

val bit : t -> vpn:int -> bool
(** The page's residency bit in the shared page. *)

val set_bit : t -> vpn:int -> bool -> unit

val resident_pages : t -> int
(** Recount of [Resident] PTEs (for invariant checks; [rss] is the running
    counter).  [In_transit] pages are not counted: a frame is charged to
    the resident set only once it is installed. *)

(** The frame table: each physical frame's page, its one {!state}, and the
    free list.

    A frame is on the free list exactly when its state is {!listed}.
    Pages are freed to the list's {e tail} (by the paging daemon and by the
    releaser — section 3.1.2: "released pages are placed at the end of the
    free list, giving pages that were released too early a chance to be
    rescued") and allocated from its head, so a freed page survives as long
    as possible.  {!set} is the only writer of a state: it moves the frame
    on or off the list (a rescue takes it from the middle in O(1)) and
    keeps the count of frames in each state. *)

type state =
  | Free  (** listed, holding no page *)
  | Rescuable_daemon
      (** listed, keeping a page the paging daemon stole until the frame is
          reallocated; the owner's PTE is [On_free_list] *)
  | Rescuable_releaser  (** the same for a page the releaser freed *)
  | Resident  (** the owner's PTE is [Resident] *)
  | Writeback_daemon
      (** a dirty stolen page, listed when its write completes; the owner's
          PTE is [On_free_list] *)
  | Writeback_releaser  (** the same for a page the releaser freed *)
  | Held  (** holding no page: taken by an allocator or the chaos phantom *)
  | Abandoned
      (** holding no page: with rescue disabled, a page in writeback that
          its owner fetched again; listed when the write completes *)

type node
(** A frame's state and list links, which only {!set} writes. *)

type frame = {
  idx : int;
  mutable owner : int;  (** pid of the page's process *)
  mutable vpn : int;    (** the page's virtual page number *)
  mutable dirty : bool;
  mutable valid : bool; (** software ref-bit proxy (PTE/TLB validity) *)
  mutable referenced : bool; (** hardware ref bit, used when [hw_ref_bits] *)
  mutable prefetched : bool; (** resident but never touched: not validated *)
  mutable release_invalidated : bool;
      (** mapping invalidated by a release request rather than the daemon *)
  mutable age : int;    (** daemon visits since last (re)validation *)
  mutable free_site : int;
      (** directive site whose release freed this frame ([-1] =
          {!Memhog_sim.Trace.no_site} for daemon steals); lets a later
          rescue be attributed to the releasing directive *)
  node : node;
}
(** The page a frame holds: [owner], [vpn] and [free_site] mean something
    only while the state keeps a page (resident, rescuable or in
    writeback), the flags only while it is resident.  [valid] is the
    software reference-bit proxy: the paging daemon clears it to sample
    references (the MIPS TLB has no reference bit), and a subsequent touch
    incurs a soft fault that sets it again. *)

type t

val create : int -> t
(** That many frames, indexed from 0, every one [Free] and listed in index
    order. *)

val frames : t -> frame array
val state : frame -> state

val set : t -> frame -> state -> unit
(** Off the list if the new state is not listed, onto its tail if the old
    one was not, else in place.
    @raise Invalid_argument when the frame is already in that state. *)

val listed : state -> bool
val rescuable : Vm_stats.freer -> state
val writeback : Vm_stats.freer -> state

val freer : state -> Vm_stats.freer
(** @raise Invalid_argument unless a [Rescuable_*] or [Writeback_*] state. *)

val count : t -> state -> int
val length : t -> int  (** frames on the list, counted by its links *)

val head : t -> frame option
(** The frame the next allocation takes; [None] when the list is empty. *)

val conserved : t -> resident:int -> bool
(** O(1): the counts sum to the frame count, [Resident]'s is [resident]
    (the processes' rss summed), and the listed states' is {!length}. *)

val iter : t -> (frame -> unit) -> unit
(** Head-to-tail over the listed frames. *)

(** Machine configuration and IRIX-like virtual-memory tunables.

    Defaults model the paper's testbed (Table 1): a 4-CPU SGI Origin 200
    with 75 MB of memory available to user programs and 16 KB pages, and the
    IRIX 6.5 paging machinery (global clock replacement with
    software-simulated reference bits, [min_freemem]/[maxrss] tunables).

    A {!t} holds what an experiment varies: capacity, the replacement
    tunables, the four ablation switches and the daemon's pacing.  The CPU
    count, the TLB size and the kernel's fixed costs are constants. *)

type t = {
  page_bytes : int;          (** page size in bytes *)
  total_frames : int;        (** physical pages available to user programs *)
  (* --- replacement tunables (cf. paper section 3.1.3) --- *)
  min_freemem : int;
      (** low watermark, in pages: the paging daemon starts stealing when
          free memory falls below this *)
  desfree : int;
      (** the daemon's target: it steals until free memory reaches this *)
  maxrss : int;
      (** per-process resident-set cap, in pages; the daemon trims processes
          above it *)
  hw_ref_bits : bool;
      (** ablation: when true, the daemon reads a hardware reference bit
          instead of invalidating pages (no soft faults are induced) *)
  rescue_from_free_list : bool;
      (** ablation: when false, freed pages lose their contents immediately
          (no rescue; section 3.1.2 places them at the free-list tail) *)
  drop_prefetch_when_low : bool;
      (** ablation: when false, prefetches block for memory instead of
          being discarded (section 3.1.2's drop feature disabled) *)
  prefetch_fills_tlb : bool;
      (** ablation: when true, a completed prefetch installs a TLB entry —
          the displacement behaviour section 3.1.2's PM avoids *)
  daemon_batch : int;
      (** frames the daemon processes per lock acquisition *)
  daemon_interval_ns : Memhog_sim.Time_ns.t;
      (** how often the paging daemon checks for memory pressure *)
}

(** {1 Fixed machine constants}

    The parts of the Table 1 machine and of the IRIX cost model that no
    experiment varies. *)

val num_cpus : int  (** the Origin 200's 4 CPUs *)

val clock_ages_to_steal : int
(** How many consecutive daemon visits a page must stay un-re-referenced
    (invalid) before it is stolen: 1. *)

val tlb_entries : int  (** per-process TLB size (MIPS R10000: 64) *)

(** {2 Cost model, nanoseconds} *)

val soft_fault_ns : Memhog_sim.Time_ns.t
(** Revalidating a page the daemon invalidated: 25 µs. *)

val validation_fault_ns : Memhog_sim.Time_ns.t
(** First touch of a prefetched-but-not-validated page: 4 µs. *)

val hard_fault_cpu_ns : Memhog_sim.Time_ns.t
(** Kernel CPU cost of a hard fault, excluding I/O: 40 µs. *)

val rescue_ns : Memhog_sim.Time_ns.t
(** Reclaiming a still-intact page from the free list: 8 µs. *)

val zero_fill_ns : Memhog_sim.Time_ns.t
(** First-touch allocation of a brand new page: 25 µs. *)

val pm_call_ns : Memhog_sim.Time_ns.t
(** User/kernel crossing for a PagingDirected request: 3 µs. *)

val tlb_refill_ns : Memhog_sim.Time_ns.t
(** Software TLB refill (the R10000 has no hardware page walker): 700 ns. *)

val daemon_page_scan_ns : Memhog_sim.Time_ns.t
(** Paging-daemon work per frame visited, locks held: reference-bit
    sampling requires invalidation and TLB shootdown IPIs on a 4-CPU
    machine, tens of microseconds per page: 20 µs. *)

val releaser_page_ns : Memhog_sim.Time_ns.t
(** Releaser work per page freed, locks held; the releaser is specialized
    so this is far below [daemon_page_scan_ns]: 250 ns. *)

val releaser_batch : int
(** Pages the releaser frees per lock acquisition: 32. *)

val default : t
(** The Table 1 machine: 75 MB / 16 KB pages = 4800 frames, [maxrss] =
    no cap, software reference bits. *)

val scaled : ?factor:int -> t -> t
(** [scaled ~factor cfg] divides memory-capacity figures by [factor] for
    quicker experiments while preserving all ratios that matter. *)

val pp : Format.formatter -> t -> unit

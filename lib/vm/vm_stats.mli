(** Virtual-memory statistics.

    These counters are exactly the quantities the paper's evaluation
    reports: hard and soft fault counts (Figs 8, 10c), paging-daemon
    activations and pages stolen (Table 3), freed-page outcomes — who freed
    each page and whether it was rescued from the free list or lost
    (Fig 9) — and prefetch/release effectiveness. *)

type freer = Daemon | Releaser

(** Per-process counters. *)
type proc = {
  mutable hard_faults : int;      (** faults requiring swap I/O *)
  mutable soft_faults : int;      (** all revalidations *)
  mutable soft_faults_daemon : int;
      (** revalidations after daemon reference-bit invalidations (Figure 8) *)
  mutable validation_faults : int;(** first touch of a prefetched page *)
  mutable zero_fills : int;
  mutable rescued_daemon : int;   (** rescues of pages the daemon freed *)
  mutable rescued_releaser : int; (** rescues of pages freed by release *)
  mutable lost_daemon : int;
      (** daemon-freed pages lost before a rescue: the frame was reallocated,
          or rescue is disabled (a clean page at its free, a dirty one when
          its write completes or its owner refetches it, if sooner) *)
  mutable lost_releaser : int;    (** the same for released pages *)
  mutable freed_by_daemon : int;  (** pages of this process stolen by daemon *)
  mutable freed_by_releaser : int;(** pages of this process explicitly released *)
  mutable releases_requested : int;
  mutable releases_skipped : int; (** re-referenced before the releaser acted *)
  mutable prefetches_issued : int;
  mutable prefetches_dropped : int; (** discarded: no free memory *)
  mutable prefetches_useless : int; (** already resident *)
  mutable prefetch_rescues : int;   (** satisfied from the free list *)
  mutable writebacks : int;
  mutable invalidations : int;    (** daemon invalidations of this process's
                                      pages (software ref-bit sampling) *)
}

val create_proc : unit -> proc
val add_proc : proc -> proc -> unit

(** Global (system-wide) counters. *)
type global = {
  mutable daemon_activations : int;
      (** times the daemon went from idle to stealing (Table 3 "operations") *)
  mutable daemon_pages_stolen : int;
  mutable daemon_frames_scanned : int;
  mutable daemon_invalidations : int;
  mutable releaser_batches : int;
  mutable releaser_pages_freed : int;
  mutable allocations : int;
  mutable allocation_waits : int; (** allocations that had to block *)
}

val create_global : unit -> global

val add_global : global -> global -> unit
(** [add_global dst src] merges [src] into [dst] (field-wise sum), the
    global-counter counterpart of {!add_proc}. *)

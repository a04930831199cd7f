(** Per-page lifecycle ledger with causal attribution to directive sites.

    The ledger consumes the same typed events {!Trace} records, fed to it by
    the observation bus ({!Obs.emit}) at the emit point — never by
    replaying the ring, so ring overflow cannot truncate it.  It tracks a
    lifecycle state machine per (owner pid, vpn) —
    prefetch-sent → in-flight → resident(prefetched) → referenced →
    release-sent → freed → rescued / refaulted / reused — and charges every
    transition to the static directive site ({!Memhog_compiler.Pir.directive}
    [.d_tag]) that caused it.

    On top of the raw lifecycle it derives the paper's wasted-work taxonomy:
    - {e useless prefetch}: fetched, never referenced;
    - {e late prefetch}: the demand fault arrived while the prefetch was
      still pending or in flight;
    - {e too-early release}: released then touched again — cheap when the
      page was rescued off the free list, expensive when it hard-refaulted;
    - {e unnecessary release}: freed but never reclaimed under pressure
      (the frame was never reused and the page never touched again).

    Page states are ints in per-process arrays indexed by vpn, and the
    per-site rows sit in an array indexed by site, so {!observe} does no
    hashing and allocates only when an array grows.  Pids and vpns are
    dense from 0 (address spaces number their pages from 0); sites are
    {!Trace.no_site} or a directive tag.

    The ledger counts in the records it reports: each site's counts in its
    {!site_row}, the run's tallies in a {!summary}.  {!summarize} returns
    copies of them.

    Driven only by simulated-time events inside one experiment cell, with
    sorted summary tables, so the output is byte-identical at any [--jobs]. *)

type t

val create : unit -> t

val null : t
(** A permanently disabled ledger; [observe] on it is a no-op. *)

val enabled : t -> bool

val refaults : t -> int
(** Running count of too-early releases that hard-refaulted — the same
    total {!summarize} reports as [ls_early_refaulted], but O(1): cheap
    enough for a telemetry probe to read every scrape. *)

val early_rescues : t -> int
(** Running count of too-early releases rescued from the free list
    ([ls_early_rescued]), also O(1). *)

val observe : t -> time:Time_ns.t -> stream:int -> Trace.event -> unit
(** Feed one event.  [stream] follows the {!Trace.emit} convention: the
    acting process's pid for application-stream events; daemon-side events
    carry the owning pid in the event payload.  Any interleaving of
    well-formed events is legal (see {!invariants_ok}).
    @raise Invalid_argument when the event names a page by a negative pid
    or vpn, or carries a site below {!Trace.no_site}. *)

(** One row of the per-directive-site efficacy table.  The ledger counts
    in its own rows; the ones {!summarize} returns are copies. *)
type site_row = {
  sr_site : int;  (** directive tag; {!Trace.no_site} = unattributed *)
  mutable sr_pf_sent : int;
      (** prefetch intents accepted by the run-time layer *)
  mutable sr_pf_issued : int;  (** asynchronous fetches the OS started *)
  mutable sr_pf_dropped : int;  (** dropped: no free frame / queue full *)
  mutable sr_pf_raced : int;  (** page already resident when the OS looked *)
  mutable sr_pf_done : int;
      (** fetches (or free-list rescues) that completed *)
  mutable sr_pf_referenced : int;  (** prefetched pages later touched *)
  mutable sr_pf_useless : int;  (** prefetched pages never touched *)
  mutable sr_pf_late : int;  (** demand fault beat the prefetch *)
  mutable sr_pf_saved_ns : int;  (** I/O ns hidden by referenced prefetches *)
  mutable sr_rel_hints : int;  (** release hints from the application *)
  mutable sr_rel_filtered : int;
      (** dropped by the one-behind/bitmap filters *)
  mutable sr_rel_buffered : int;  (** parked in the release buffer *)
  mutable sr_rel_stale : int;  (** invalidated in the buffer before draining *)
  mutable sr_rel_sent : int;  (** forwarded to the OS *)
  mutable sr_rel_skipped : int;  (** OS saw a re-reference and kept the page *)
  mutable sr_rel_freed : int;  (** freed by the releaser *)
  mutable sr_rel_rescued : int;  (** freed page rescued off the free list *)
  mutable sr_rel_refaulted : int;  (** freed page hard-refaulted later *)
  mutable sr_rel_reused : int;  (** freed frame reused by another allocation *)
  mutable sr_rel_unreclaimed : int;
      (** freed but never reused nor re-touched *)
  mutable sr_priority_sum : int;
      (** sum of this site's hints' Eq. 2 priorities *)
  mutable sr_priority_n : int;  (** hints in [sr_priority_sum] *)
}

(** The run's tallies.  The ledger counts in one of these; {!summarize}
    returns a copy with the site rows and the close-out residue added. *)
type summary = {
  ls_sites : site_row list;  (** ascending site id; unattributed row first *)
  mutable ls_pages_tracked : int;
  mutable ls_useless_prefetches : int;
  mutable ls_late_prefetches : int;
  mutable ls_early_rescued : int;
  mutable ls_early_refaulted : int;
  mutable ls_useful_releases : int;
  mutable ls_unnecessary_releases : int;
  mutable ls_hard_faults : int;  (** reconciles with Vm_stats hard_faults *)
  mutable ls_soft_faults : int;
  mutable ls_validation_faults : int;
  mutable ls_zero_fills : int;
  mutable ls_rescues : int;
      (** reconciles with rescued_daemon + rescued_releaser *)
  mutable ls_prefetches_issued : int;
  mutable ls_prefetches_dropped : int;
      (** reconciles with prefetches_dropped *)
  mutable ls_releases_freed : int;
  mutable ls_releases_skipped : int;
  mutable ls_tier_demotions : int;
      (** pages placed in a fast tier on release *)
  mutable ls_tier_fetches : int;
      (** faults/prefetches served from a fast tier *)
  mutable ls_tier_failovers : int;
      (** demotions redirected off an unhealthy tier *)
  mutable ls_tier_rescues : int;
      (** dead-tier reads served from the failover copy *)
}

val summarize : t -> summary
(** Close out the run: pages still prefetched-unreferenced become useless
    prefetches, pages still on the free list become unnecessary releases.
    Pure: the summary and its rows are fresh copies, so the ledger is never
    mutated, writing to what it returns leaves the next call unchanged, and
    it is safe to call repeatedly. *)

val empty_summary : summary
(** What [summarize null] returns: all zeros, no site rows.  Shared: write
    to a copy. *)

val priority_mean : site_row -> float
(** Mean Eq. 2 priority of the site's release hints; 0 without hints. *)

val refault_pct : site_row -> float
(** (rescued + refaulted) / freed, percent; 0 when nothing was freed. *)

val invariants_ok : summary -> bool
(** Structural legality of a summary: counters non-negative, per-site sums
    reconcile with the global tallies, reused/unreclaimed never exceed
    freed.  Holds for {e any} event interleaving fed to [observe]. *)

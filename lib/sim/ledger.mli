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
    per-site tallies sit in an array indexed by site, so {!observe} does no
    hashing and allocates only when an array grows.  Pids and vpns are
    dense from 0 (address spaces number their pages from 0); sites are
    {!Trace.no_site} or a directive tag.

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

(** One row of the per-directive-site efficacy table. *)
type site_row = {
  sr_site : int;  (** directive tag; {!Trace.no_site} = unattributed *)
  sr_pf_sent : int;  (** prefetch intents accepted by the run-time layer *)
  sr_pf_issued : int;  (** asynchronous fetches the OS started *)
  sr_pf_dropped : int;  (** dropped: no free frame / queue full *)
  sr_pf_raced : int;  (** page already resident when the OS looked *)
  sr_pf_done : int;  (** fetches (or free-list rescues) that completed *)
  sr_pf_referenced : int;  (** prefetched pages later touched *)
  sr_pf_useless : int;  (** prefetched pages never touched *)
  sr_pf_late : int;  (** demand fault beat the prefetch *)
  sr_pf_saved_ns : int;  (** I/O ns hidden by referenced prefetches *)
  sr_rel_hints : int;  (** release hints from the application *)
  sr_rel_filtered : int;  (** dropped by the one-behind/bitmap filters *)
  sr_rel_buffered : int;  (** parked in the release buffer *)
  sr_rel_stale : int;  (** invalidated in the buffer before draining *)
  sr_rel_sent : int;  (** forwarded to the OS *)
  sr_rel_skipped : int;  (** OS saw a re-reference and kept the page *)
  sr_rel_freed : int;  (** freed by the releaser *)
  sr_rel_rescued : int;  (** freed page rescued off the free list *)
  sr_rel_refaulted : int;  (** freed page hard-refaulted later *)
  sr_rel_reused : int;  (** freed frame reused by another allocation *)
  sr_rel_unreclaimed : int;  (** freed but never reused nor re-touched *)
  sr_priority_mean : float;  (** mean Eq. 2 priority of this site's hints *)
  sr_refault_pct : float;  (** (rescued + refaulted) / freed, percent *)
}

type summary = {
  ls_sites : site_row list;  (** ascending site id; unattributed row first *)
  ls_pages_tracked : int;
  ls_useless_prefetches : int;
  ls_late_prefetches : int;
  ls_early_rescued : int;
  ls_early_refaulted : int;
  ls_useful_releases : int;
  ls_unnecessary_releases : int;
  ls_hard_faults : int;  (** reconciles with Vm_stats hard_faults *)
  ls_soft_faults : int;
  ls_validation_faults : int;
  ls_zero_fills : int;
  ls_rescues : int;  (** reconciles with rescued_daemon + rescued_releaser *)
  ls_prefetches_issued : int;
  ls_prefetches_dropped : int;  (** reconciles with prefetches_dropped *)
  ls_releases_freed : int;
  ls_releases_skipped : int;
  ls_tier_demotions : int;  (** pages placed in a fast tier on release *)
  ls_tier_fetches : int;  (** faults/prefetches served from a fast tier *)
  ls_tier_failovers : int;  (** demotions redirected off an unhealthy tier *)
  ls_tier_rescues : int;  (** dead-tier reads served from the failover copy *)
}

val summarize : t -> summary
(** Close out the run: pages still prefetched-unreferenced become useless
    prefetches, pages still on the free list become unnecessary releases.
    Pure — never mutates the ledger, safe to call repeatedly. *)

val empty_summary : summary
(** What [summarize null] returns: all zeros, no site rows. *)

val invariants_ok : summary -> bool
(** Structural legality of a summary: counters non-negative, per-site sums
    reconcile with the global tallies, reused/unreclaimed never exceed
    freed.  Holds for {e any} event interleaving fed to [observe]. *)

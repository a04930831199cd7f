(** Fault-tolerant tiered backing store.

    Routes released pages across up to three stores: the local striped swap
    volume (tier 0, always present — every demotion writes through to it,
    so a durable failover copy always exists), a network far-memory tier
    (tier 1, {!Memhog_disk.Farmem}) and a compressed-RAM tier (tier 2,
    {!Memhog_disk.Zram}).  Placement follows the release directive's Eq. 2
    priority: low priorities (reuse far away) go to far memory, high ones
    (likely back soon) to compressed RAM; unattributed write-backs (paging
    daemon steals) keep the swap copy only.

    Robustness: a per-tier health monitor (failure-rate EWMA over request
    outcomes) drives a three-state circuit breaker on the far tier — closed
    until sustained timeouts push the EWMA over the opening threshold, then
    open (demotions fail over to local swap, reads go straight to the
    failover copy) with an exponentially growing hold-off, then half-open
    (a single probe request; success closes the breaker, failure re-opens
    it).  A read whose fast copy is unreachable is {e rescued} from the
    swap copy, so no fiber ever blocks on a dead tier.

    All decisions are functions of simulated time and deterministic state:
    byte-identical at any [--jobs]. *)

open Memhog_sim
module Swap = Memhog_disk.Swap
module Farmem = Memhog_disk.Farmem
module Zram = Memhog_disk.Zram

val tier_far : int
val tier_zram : int

val tier_name : int -> string
(** ["disk"], ["far"], ["zram"]. *)

(** {1 Spec}

    Textual configuration, clauses joined by [+]:
    [far\[:latency=5us,bw=1000,timeout=500us,attempts=4,backoff=50us,cap=2ms\]],
    [zram\[:cap=16M,compress=900ns,decompress=400ns\]],
    [route\[:thresh=3,ewma=0.3,open=0.5,min=3,hold=50ms,cap=1s\]].
    At least one of [far]/[zram] must be named.  Times, integers and
    numbers go through {!Memhog_sim.Spec_lex}, as in chaos plans ("500us",
    "2ms", "1m", bare seconds); sizes take K/M/G suffixes. *)

type route = {
  r_thresh : int;  (** priorities >= thresh go to zram, below to far *)
  r_ewma : float;  (** EWMA smoothing factor for the failure rate *)
  r_open : float;  (** breaker opens when the EWMA reaches this *)
  r_min : int;  (** samples required before the breaker may open *)
  r_hold : Time_ns.t;  (** initial open hold-off before a probe *)
  r_hold_cap : Time_ns.t;  (** hold-off saturation under repeated failure *)
}

type spec = {
  sp_far : Farmem.params option;
  sp_zram : Zram.params option;
  sp_route : route;
}

val spec_of_string : string -> (spec, string) result
(** Parse a spec; [Error] describes the first malformed clause. *)

val spec_of_string_exn : string -> spec
(** @raise Invalid_argument on a malformed spec. *)

(** {1 Router} *)

type t

val create :
  ?obs:Obs.t ->
  ?chaos:Chaos.t ->
  engine:Engine.t ->
  page_bytes:int ->
  swap:Swap.t ->
  spec ->
  unit ->
  t
(** Every tier event ({!Trace.Tier_demote} … and
    {!Trace.Breaker_transition}) is emitted on [obs] (default {!Obs.null}),
    on {!Trace.tier_stream}.  [chaos] and [obs] are handed to the far tier
    for its own fault hooks. *)

val demote : t -> page:int -> pid:int -> vpn:int -> site:int ->
  priority:int option -> unit
(** Place an additional fast-tier copy of a page whose durable copy the
    caller has already written to swap.  [priority = None] (daemon steal)
    places nothing.  An open far breaker, a dead link or a full carve-out
    fail the placement over to the swap copy (counted per tier). *)

val fetch :
  t -> ?cat:Account.category -> ?background:bool -> page:int -> unit -> unit
(** Blocking page read from wherever the page lives.  Fast-tier copies are
    consumed (exclusive load); unreachable copies are rescued from swap.
    Never raises, never blocks beyond the far tier's bounded retry plan. *)

val invalidate : t -> page:int -> unit
(** Drop any fast-tier copy (free, no simulated time): the page became
    resident by a route other than {!fetch} (free-list rescue). *)

val far_open : t -> bool
(** The far tier is configured and its breaker is currently open —
    the runtime's governor treats this as a reason to buffer locally. *)

(** {1 Introspection} *)

val rescues : t -> int
val far_failovers : t -> int
val breaker_transitions : t -> int

val breaker_state : t -> int
(** 0 = closed, 1 = half-open, 2 = open. *)

val placed_pages : t -> int
val zram : t -> Zram.t option
val far : t -> Farmem.t option

val check : t -> resident:(pid:int -> vpn:int -> bool) -> (string * bool) list
(** Structural invariants against the caller's residency view: no placed
    page is simultaneously resident, and zram occupancy matches the
    location map exactly. *)

type tier_summary = {
  ts_tier : int;
  ts_reads : int;
  ts_writes : int;
  ts_timeouts : int;
  ts_retries : int;
  ts_rejects : int;
  ts_failovers : int;
  ts_breaker_transitions : int;
}

type summary = {
  s_tiers : tier_summary list;  (** tier-id order; disk always present *)
  s_rescues : int;
  s_breaker_state : int;
  s_placed : int;
  s_zram_amplification : float;
}

val summary : t -> summary

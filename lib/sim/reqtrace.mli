(** Per-request critical-path tracing with blame attribution.

    A [Reqtrace.t] records, for every completed server request, an {e
    additive} decomposition of its response time into five top-level
    components — queue wait, index-page fault stall, value-page fault
    stall, CPU-semaphore wait, compute — that sum {e exactly} to the
    recorded response time.  The additivity is structural, not a
    convention the caller must honour: the record keeps a running
    boundary mark, every [note_*] call charges [now - mark] to its
    component and advances the mark, and [finish] folds whatever is left
    into compute.  Sub-components measured inside the stalls (demand
    disk service, time queued behind background I/O before a demand
    bypass, in-transit waits on someone else's I/O, prefetch slack) are
    attributed to the request via the calling fiber's pid and recorded as
    informational children — they explain the stalls, they do not change
    the sum.

    Records are preallocated and reservoir-sampled (Algorithm R with a
    private seeded stream) above [cap], so hot runs stay
    allocation-light; the whole-population per-component histograms are
    recorded at every commit, so blame shares are exact even when the
    sampled span set is not.  Everything is deterministic per simulation
    cell and therefore byte-identical at any [--jobs].

    In-flight spans live in an array indexed by the serving fiber's pid,
    urgent-prefetch issue times and I/O spans in arrays indexed by page:
    the owning address space's pid ([owner]), then the vpn.  Every address
    space numbers its pages from 0, so a vpn alone would mix one process's
    prefetches into another's slack.  Per-request calls do no hashing and
    allocate nothing.  Pids, owners and vpns are dense from 0.  Only
    {!start} and the two [note_prefetch_*] calls grow an array; every
    other call reads a pid or page it has never seen (or one beyond every
    array) as absent, and does nothing.

    The blame layer is not an event-stream subscriber: the VM calls
    {!note_prefetch_done} and {!note_transit} directly, the disks
    {!note_disk_queue} and {!note_disk_service}.  A [null] reqtrace makes
    every entry point a single branch. *)

type touch_kind = Index | Value

type touch_outcome =
  | Hit  (** page resident; no fault of any kind *)
  | Soft  (** reclaimed / validated / rescued without a disk read here *)
  | Hard  (** demand disk read on this request's critical path *)

(** One request's record.  All times are simulated ns; the five
    [sp_queue..sp_compute] components telescope to [sp_response]
    exactly.  Treat as read-only outside this module: the records are
    reused storage owned by the reqtrace. *)
type span = {
  mutable sp_id : int;  (** commit ordinal (0-based); -1 before commit *)
  mutable sp_key : int;
  mutable sp_arrival : Time_ns.t;
  mutable sp_response : Time_ns.t;
  (* additive components *)
  mutable sp_queue : Time_ns.t;
  mutable sp_index : Time_ns.t;
  mutable sp_value : Time_ns.t;
  mutable sp_cpu : Time_ns.t;
  mutable sp_compute : Time_ns.t;
  (* informational sub-components (inside the stalls above) *)
  mutable sp_disk_queue : Time_ns.t;
      (** demand time spent waiting for the arm (behind background I/O
          when [sp_bypasses] > 0) *)
  mutable sp_disk_service : Time_ns.t;  (** demand positioning+transfer *)
  mutable sp_transit : Time_ns.t;
      (** waits on pages already in transit under someone else's I/O *)
  mutable sp_bypasses : int;
  mutable sp_pf_hidden : int;
      (** touches whose urgent prefetch (or residency) hid the disk *)
  mutable sp_pf_lost : int;  (** touches whose urgent prefetch lost the race *)
  mutable sp_pf_slack : Time_ns.t;
      (** total issue-to-touch gap minus observed I/O span, clamped >= 0 *)
  mutable sp_mark : Time_ns.t;  (** internal: last component boundary *)
  mutable sp_nchild : int;
  sp_child_kind : int array;
  sp_child_start : Time_ns.t array;
  sp_child_dur : Time_ns.t array;
  mutable sp_nslack : int;
  sp_slack : Time_ns.t array;
}

val children : span -> (string * Time_ns.t * Time_ns.t) list
(** Recorded child intervals as [(kind, start, dur)], oldest first.
    Kinds: ["disk_queue"], ["disk_io"], ["transit"].  At most 16 are kept
    per span; later ones are dropped. *)

type t

val null : t
(** Permanently disabled; every entry point is a no-op. *)

val create : ?cap:int -> seed:int -> unit -> t
(** [cap] bounds the sampled-span reservoir (default 4096).  [seed]
    drives only the reservoir's replacement draws. *)

val enabled : t -> bool

(** {1 Request lifecycle (driven by the serving fiber)} *)

val start : t -> pid:int -> key:int -> arrival:Time_ns.t -> now:Time_ns.t -> unit
(** Begin a span on fiber [pid]; [now - arrival] is charged to queue
    wait.  A span already active on [pid] is discarded.
    @raise Invalid_argument on a negative [pid]. *)

val note_touch :
  t ->
  pid:int ->
  owner:int ->
  kind:touch_kind ->
  vpn:int ->
  outcome:touch_outcome ->
  now:Time_ns.t ->
  unit
(** Charge [now - mark] to the index or value stall and settle the
    urgent-prefetch race for page ([owner], [vpn]) of the request's
    address space (hidden vs lost, slack net of the last I/O span
    {!note_prefetch_done} reported for that page). *)

val note_cpu_acquired : t -> pid:int -> now:Time_ns.t -> unit
(** Charge [now - mark] to CPU-semaphore wait. *)

val finish : t -> pid:int -> commit:bool -> now:Time_ns.t -> unit
(** Charge [now - mark] to compute, close the span and, when [commit]
    (the response was recorded, i.e. post-warmup), fold it into the
    population histograms and offer it to the reservoir. *)

(** {1 Attribution hooks (called from the disk and VM layers)} *)

val note_disk_queue :
  t -> pid:int -> start:Time_ns.t -> ns:Time_ns.t -> bypassed:bool -> unit
(** Demand request on fiber [pid] waited [ns] for the disk arm;
    [bypassed] when it overtook queued background work. *)

val note_disk_service : t -> pid:int -> start:Time_ns.t -> ns:Time_ns.t -> unit
(** Demand positioning+transfer span on fiber [pid]. *)

val note_transit : t -> pid:int -> start:Time_ns.t -> ns:Time_ns.t -> unit
(** Fiber [pid] waited [ns] for a page already in transit under
    someone else's I/O. *)

val note_prefetch_issued : t -> owner:int -> vpn:int -> now:Time_ns.t -> unit
(** An urgent prefetch for page ([owner], [vpn]) was requested at [now];
    the next touch of that page settles the race.
    @raise Invalid_argument on a negative [owner] or [vpn]. *)

val note_prefetch_done : t -> owner:int -> vpn:int -> ns:Time_ns.t -> unit
(** A prefetch of page ([owner], [vpn]) completed after an I/O span of
    [ns]: the slack of the next hidden touch of that page is measured net
    of it.  Called by the VM where it completes a prefetch.
    @raise Invalid_argument on a negative [owner] or [vpn]. *)

(** {1 Aggregation} *)

val committed : t -> int
(** Requests committed (recorded responses). *)

val sampled : t -> int
(** Spans currently held in the reservoir. *)

val iter_sampled : t -> (span -> unit) -> unit
(** Iterate the reservoir in slot order (deterministic). *)

val slowest : t -> span option
(** The slowest committed request (first one on ties), kept outside the
    reservoir so it always survives sampling. *)

(** Per-percentile-band component sums over the sampled spans. *)
type band = {
  bd_label : string;  (** ["body"], ["tail"], ["deep"] *)
  bd_count : int;
  bd_queue : Time_ns.t;
  bd_index : Time_ns.t;
  bd_value : Time_ns.t;
  bd_cpu : Time_ns.t;
  bd_compute : Time_ns.t;
  bd_response : Time_ns.t;
}

type summary = {
  su_committed : int;
  su_sampled : int;
  su_cap : int;
  su_p50 : Time_ns.t;  (** response percentiles over {e all} commits *)
  su_p99 : Time_ns.t;
  su_p999 : Time_ns.t;
  su_bands : band list;
      (** body (< p99), tail (p99 <= r < p999), deep (>= p999) *)
  su_response : Histogram.t;  (** whole-population, one entry per commit *)
  su_queue : Histogram.t;
  su_index : Histogram.t;
  su_value : Histogram.t;
  su_cpu : Histogram.t;
  su_compute : Histogram.t;
  su_pf_slack : Histogram.t;  (** one entry per hidden prefetch *)
  su_pf_hidden : int;
  su_pf_lost : int;
  su_bypasses : int;
  su_disk_queue : Time_ns.t;  (** totals over committed requests *)
  su_disk_service : Time_ns.t;
  su_transit : Time_ns.t;
}

val summarize : t -> summary
(** Deterministic: percentile thresholds come from the whole-population
    response histogram; bands are folded over the reservoir in slot
    order. *)

(** The run-time layer (section 3.3, Figure 6).

    Sits between the instrumented application and the OS.  It filters
    obviously-bad requests using the shared page's residency bitmap and a
    per-tag "one request behind" check, issues the surviving requests
    through a pool of helper threads (the pthreads of the paper — IRIX gave
    user programs no asynchronous I/O), and implements the two release
    policies the paper compares:

    - {b Aggressive}: issue every surviving release to the OS immediately;
    - {b Buffered}: issue zero-priority releases immediately, buffer the
      rest in priority queues, and drain ~[release_target] pages from the
      lowest-priority queues whenever the process's memory usage approaches
      the upper limit published by the OS. *)

type policy =
  | Aggressive
  | Buffered
  | Reactive
      (** section 2.2's alternative: never release proactively; hold every
          releasable page and surrender the least-valuable one only when
          the OS asks (via {!advise_evict}, wired to
          {!Memhog_vm.Os.set_eviction_advisor}) *)

type stats = {
  mutable rt_prefetch_requests : int;   (** seen from the application *)
  mutable rt_prefetch_filtered : int;   (** dropped: already resident *)
  mutable rt_prefetch_enqueued : int;
  mutable rt_release_requests : int;
  mutable rt_release_filtered_bitmap : int; (** dropped: not resident *)
  mutable rt_release_filtered_same : int;   (** dropped: same page as the
                                                previous request of the tag *)
  mutable rt_release_issued : int;      (** handed to the OS *)
  mutable rt_release_buffered : int;
  mutable rt_buffer_drains : int;
  mutable rt_release_stale_dropped : int;
      (** buffered entries found non-resident at drain time (the OS stole or
          freed the page first) and silently dropped before issue *)
  mutable rt_prefetch_os_done : int;
      (** enqueued prefetches the OS completed (fetched, rescued or found
          already resident) *)
  mutable rt_prefetch_os_dropped : int;
      (** enqueued prefetches the OS discarded for lack of free memory *)
  mutable rt_gov_level : int;  (** current degradation level, 0..2 *)
  mutable rt_gov_degrades : int;  (** level-up transitions *)
  mutable rt_gov_recoveries : int;  (** level-down transitions *)
  mutable rt_gov_suppressed : int;
      (** hints swallowed while at level 2 (directives off) *)
  mutable rt_tier_buffered : int;
      (** releases the tier-aware rung forced into the buffer because the
          far-memory circuit breaker was open at hint time
          ({!Memhog_vm.Os.tier_far_open}) *)
}

(** Hysteresis parameters of the graceful-degradation governor.  The
    governor watches two rolling-window signals — the OS-side prefetch drop
    rate and the release badness rate (stale drops + releaser rescues over
    issues) — and walks a degradation ladder: level 0 runs the configured
    policy, level 1 forces {!Aggressive} (no buffering: under an active
    fault, held pages only go stale), level 2 turns directives off entirely
    (pure demand paging).  A window is {e bad} when it holds at least
    [gv_min_samples] observations and either signal reaches [gv_bad_rate];
    [gv_degrade_after] consecutive bad windows move one level down the
    ladder, [gv_recover_after] consecutive good windows move one level back
    up.  At level 2 hints are suppressed, so windows go quiet and count as
    good — recovery probes back to level 1 and re-degrades if the fault
    persists.  Every transition is a {!Memhog_sim.Trace.Governor_transition}
    event and a counter.

    Windows are closed lazily on hint arrival (zero simulated-time cost),
    never by a dedicated fiber — so enabling the governor does not perturb
    the engine schedule of a healthy run. *)
type governor_cfg = {
  gv_window_ns : Memhog_sim.Time_ns.t;  (** rolling window length *)
  gv_min_samples : int;  (** observations needed to judge a window *)
  gv_bad_rate : float;  (** signal threshold in [0,1] *)
  gv_degrade_after : int;  (** consecutive bad windows per level down *)
  gv_recover_after : int;  (** consecutive good windows per level up *)
}

val default_governor : governor_cfg
(** 200 ms windows, 8 samples, 0.5 bad-rate, degrade after 2, recover
    after 4. *)

type t

val create :
  ?release_target:int ->
  ?governor:governor_cfg ->
  os:Memhog_vm.Os.t ->
  asp:Memhog_vm.Address_space.t ->
  policy:policy ->
  unit ->
  t
(** [release_target] is the number of pages drained per buffering decision
    (the paper fixes 100 and notes it did not experiment with it); the
    buffer drains once usage reaches the upper limit, 16 helper threads
    serve the process, and each request's filter checks cost 200 ns of
    user time.  [governor] (default off) enables graceful degradation — it is switched
    on by the experiment driver whenever a chaos plan is active. *)

val start : t -> unit
(** Spawn the helper threads (call once, from any process or before run). *)

val policy : t -> policy
val stats : t -> stats
val buffered_pages : t -> int

val governor_level : t -> int
(** Current degradation level (always 0 when the governor is off). *)

val prefetch_page : ?site:int -> ?urgent:bool -> t -> vpn:int -> unit
(** Called by the application for each page named by a compiler prefetch
    hint.  Cheap: filters and enqueues.  [site] (default
    {!Memhog_sim.Trace.no_site}) is the static directive tag
    ({!Memhog_compiler.Pir.directive}[.d_tag]); it travels with the work
    item so OS-side events remain attributable to the directive.  [urgent]
    (default [false]) marks a prefetch with a deadline — a consumer is
    already waiting on the page — and rides the disk's demand class
    ({!Memhog_vm.Os.prefetch}). *)

val release_page : t -> vpn:int -> priority:int -> tag:int -> unit
(** Called for each page named by a compiler release hint.  [tag] doubles
    as the directive's site id and is preserved through the one-behind
    filter, the priority buffer and the OS queue.  Non-positive
    priorities mean "no reuse expected" and always route to the immediate
    path, never into the priority buffer (whose {!Release_buffer.add}
    rejects them): under {!Buffered}, [priority <= 0] is issued directly;
    under {!Reactive}, [priority < 0] is issued directly and [priority = 0]
    is held at the buffer's minimum level. *)

val advise_evict : t -> int option
(** Reactive path: the page the application prefers to surrender (lowest
    priority first), or [None] when it holds nothing releasable. *)

val drain : t -> unit
(** Application exit: flush the one-behind filter's recorded pages and
    force-issue all buffered releases. *)

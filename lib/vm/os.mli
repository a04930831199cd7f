(** The kernel: global frame pool, fault handler, paging daemon, releaser
    daemon, and the PagingDirected request interface (section 3.1).

    Everything here runs inside simulated processes.  Time is charged to the
    calling process: kernel CPU work as [System], disk waits as [Io_stall],
    lock and memory waits as [Resource_stall].

    Locking follows IRIX's coarse two-lock structure as described in the
    paper: a per-address-space lock serializes fault handling against the
    paging daemon's scans and the releaser (section 4.3: "the paging daemon
    ... holds locks on the address spaces of the processes from which pages
    are being stolen.  During this time, page faults for these virtual
    memory regions cannot be serviced"), and a global memory lock protects
    the free list.  The daemon holds the locks for long stretches (it
    scans and invalidates in bulk); the releaser is specialized and holds
    them only for small batches — reproducing the contention asymmetry the
    paper measures. *)

type t

type touch_result =
  | Fast              (** page resident and valid: no kernel involvement *)
  | Soft              (** revalidated after a daemon invalidation *)
  | Validated         (** first touch of a prefetched page *)
  | Hard              (** read from swap *)
  | Zero_filled       (** first touch of a fresh page *)
  | Rescued of Vm_stats.freer  (** recovered from the free list *)

type prefetch_result =
  | P_fetched       (** I/O performed; page now resident (unvalidated) *)
  | P_rescued       (** satisfied from the free list *)
  | P_already       (** already resident or in transit, or not mapped *)
  | P_dropped       (** discarded: no free memory (section 3.1.2) *)

val create :
  ?swap_config:Memhog_disk.Swap.config ->
  ?tiers:Tiers.spec ->
  ?obs:Memhog_sim.Obs.t ->
  ?chaos:Memhog_sim.Chaos.t ->
  config:Config.t ->
  engine:Memhog_sim.Engine.t ->
  unit ->
  t
(** Build the kernel state and spawn the paging daemon and releaser daemon
    processes.

    [obs] (default {!Memhog_sim.Obs.null}) is the observation bus, handed
    to every swap disk and the tier router too.  Kernel events go on it:
    faults, prefetch outcomes, daemon steals and invalidations, releaser
    frees and skips, writeback completions, and free-list depth samples at
    each daemon tick.  The bus feeds them to its trace ring and its
    page-lifecycle ledger (which folds them into the per-page state
    machine and the per-directive-site efficacy table).  Its per-request
    blame layer is called directly, keyed by the faulting fiber's pid:
    the fault path reports in-transit waits, every completed prefetch
    reports its I/O span (for slack accounting), and the disks report
    demand arm-queue and service attribution.

    [chaos] (default {!Memhog_sim.Chaos.none}) is the fault-injection plan:
    it is handed to every swap disk (transient errors and latency spikes),
    consulted by the releaser (stall windows, dropped directives — safe to
    drop, since residency bits were already cleared at request time and a
    re-touch soft-faults the page back) and the paging daemon (stall
    windows), and its [pressure] rules spawn a phantom-competitor fiber
    that grabs free frames at the planned times and holds them, slamming
    [tot_freemem] through Equation 1.

    [tiers] (default absent) installs a {!Tiers} router over the swap
    volume: released pages gain fast-tier copies (far memory, compressed
    RAM) routed by their Eq. 2 priorities, and page reads go to wherever
    the page lives, falling back to the durable swap copy when a tier is
    dead or its circuit breaker is open. *)

val config : t -> Config.t
val engine : t -> Memhog_sim.Engine.t

val obs : t -> Memhog_sim.Obs.t
(** The observation bus this kernel emits on ({!Memhog_sim.Obs.null} when
    none was given).  Upper layers emit their own events on it, on their
    process's stream; the open-loop server drives request lifecycles on
    its blame layer. *)

val chaos : t -> Memhog_sim.Chaos.t
(** The active fault plan ({!Memhog_sim.Chaos.none} when not injecting). *)

val swap : t -> Memhog_disk.Swap.t

val tiers : t -> Tiers.t option
(** The tiered-store router, when one was requested at {!create}. *)

val tier_far_open : t -> bool
(** True when a far-memory tier exists and its circuit breaker is open —
    the runtime's governor buffers releases locally while this holds. *)

val global_stats : t -> Vm_stats.global

val fault_histogram : t -> Memhog_sim.Histogram.t
(** Service-time histogram (simulated ns) of every demand fault — any
    {!touch} that did not hit a resident valid page — measured from the
    trap to service completion, including lock waits, blocking frame
    allocation and swap I/O.  Always collected; recording is O(1). *)

val prefetch_histogram : t -> Memhog_sim.Histogram.t
(** Service-time histogram of completed prefetches ([P_fetched] and
    [P_rescued] outcomes only). *)

val free_pages : t -> int
val cpus : t -> Memhog_sim.Semaphore.t
(** Counting semaphore with one unit per CPU; application compute bursts
    acquire it. *)

(** {1 Process and memory setup} *)

val new_process : t -> name:string -> Address_space.t

val map_segment :
  t ->
  Address_space.t ->
  name:string ->
  bytes:int ->
  on_swap:bool ->
  Address_space.segment
(** Allocate a segment of the given size (rounded up to whole pages),
    backed by freshly assigned swap space. *)

(** {1 Memory operations (called from process context)} *)

val touch : t -> Address_space.t -> vpn:int -> write:bool -> touch_result
(** Reference one virtual page, faulting as needed.
    @raise Not_found when [vpn] is not mapped ({!Address_space.mapped}). *)

val prefetch :
  t -> site:int -> urgent:bool -> Address_space.t -> vpn:int -> prefetch_result
(** PagingDirected prefetch request: like a fault, except it is discarded
    when memory is exhausted, and the page is left unvalidated (no TLB
    entry) so it cannot displace active mappings.  [site] is the static
    directive site stamped on the emitted prefetch events
    ({!Memhog_sim.Trace.no_site} for none).  [urgent] rides the
    disk's demand class instead of the background class — for prefetches
    with a deadline (a request already queued behind the page), in the
    spirit of TIP's cost-benefit scheduling.  Capacity-driven sweeps ahead
    of a loop must stay non-urgent or they would starve everyone else's
    demand misses. *)

val release_batch : t -> Address_space.t -> Memhog_sim.Int_ring.t -> unit
(** PagingDirected release request: clears the residency bits and queues
    the pages for the releaser daemon.  Non-blocking apart from the trap
    cost.  The batch is a width-3 ring of (vpn, site, priority) records,
    and its pages move to the releaser's queue (the ring is left empty), so
    a request allocates nothing once the queue has grown.  An unmapped
    page is skipped, here and by the releaser.  The site
    ({!Memhog_sim.Trace.no_site} for none) rides through the releaser so
    frees, skips and later rescues stay attributable; the priority
    ([min_int] for none) is the Eq. 2 release priority the tier router
    keys placement on, ignored without a router.

    The releaser's queue is a ring of pages beside a ring of (owner, page
    count) requests.  The releaser takes the oldest request, processes its
    pages in [releaser_batch] chunks read straight from the ring, and
    waits on an {!Memhog_sim.Engine.queue} while none is queued; a request
    posted while it waits wakes it.
    @raise Invalid_argument if the ring's width is not 3. *)

val release_request : t -> Address_space.t -> vpns:int array -> unit
(** {!release_batch} of the pages [vpns], each unattributed: site
    {!Memhog_sim.Trace.no_site}, priority [min_int]. *)

(** {1 Shared-page information (read-only to applications)} *)

val shared_current_usage : t -> Address_space.t -> int
val shared_upper_limit : t -> Address_space.t -> int
(** Equation 1: [min maxrss (current + free - min_freemem)], as of the last
    memory activity of this process. *)

val page_resident : Address_space.t -> vpn:int -> bool
(** Read the shared-page residency bit; false for an unmapped [vpn]. *)

val set_eviction_advisor : t -> Address_space.t -> (unit -> int option) -> unit
(** Register a {e reactive} eviction advisor for the process (the VINO-style
    alternative of section 2.2): when the paging daemon decides to steal one
    of this process's pages, it first asks the advisor which page the
    application would rather surrender.  Section 2.2's argument — that a
    reactive scheme improves the application's own replacement but cannot
    protect other applications — is demonstrated by
    [memhog paper ext-reactive]. *)

(** {1 Invariants} *)

val check_invariants : t -> (string * bool) list
(** Structural invariants by name, asserted after every chaos scenario in
    the test suite and every cell the experiment runner simulates: each
    frame's {!Free_list.state} agrees with its owner's PTE (one walk over
    the frame table); rss counters match the page tables; frame
    conservation from the state counts ({!Free_list.conserved}), now and at
    every paging-daemon tick (that entry names the first tick it failed);
    the free list's links; and the tier router's checks. *)

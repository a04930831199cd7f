(** Open-loop key-value server: the serving-workload driver.

    A server process owns two on-swap segments — an index array (8 bytes
    per key) and a values region several times larger than physical memory
    — and serves requests whose access path is the indirect [a\[b\[i\]\]]
    pattern: read the key's index page, then the value page it points at.
    The index/value pages can be prefetched as soon as a request arrives
    (the compiler's contribution for indirect streams), but the values
    region is never released — the paper's worst case for
    compiler-directed memory management.

    Load is {e open-loop}: a generator fiber produces Poisson arrivals at a
    configured offered rate with Zipfian key popularity, timestamps each
    request {e at arrival}, prefetches its index and value pages, and
    enqueues it on an unbounded FIFO.  The server fiber dequeues, touches
    the pages, burns 200 us of compute on a CPU, and records
    [completion - arrival] for every request after the first 32 (the
    warm-up) — so queueing delay that builds up while the server stalls on
    hard faults is charged to the response, as tail-latency SLOs require.
    The generator itself never touches paged memory and so never throttles
    under memory pressure.

    All randomness comes from private {!Memhog_sim.Rng} streams seeded
    from [sv_seed]; a cell's histogram is a pure function of its
    configuration, byte-deterministic at any [--jobs]. *)

type cfg = {
  sv_nkeys : int;           (** distinct keys (Zipf ranks) *)
  sv_theta : float;         (** Zipf exponent of key popularity *)
  sv_index_bytes : int;     (** the b\[\] array *)
  sv_values_bytes : int;    (** the a\[\] region *)
  sv_rate_rps : float;      (** offered load, requests per second *)
  sv_duration : Memhog_sim.Time_ns.t;  (** arrival-window length *)
  sv_slo : Memhog_sim.Time_ns.t;       (** per-request response target *)
  sv_seed : int;
  sv_mark : Memhog_sim.Time_ns.t option;
      (** [Some off]: additionally tally SLO attainment over requests
          arriving at or after [off] past the window start — the
          "after the fault window" recovery number of the chaos
          scenarios.  Keyed on arrival time, so residual queueing left
          behind by the fault still counts against recovery. *)
}

type t

val create : os:Memhog_vm.Os.t -> cfg:cfg -> unit -> t
(** Map the segments and build the sampler tables.  Requests are traced
    on the per-request blame layer of the kernel's observation bus
    ({!Memhog_sim.Obs.reqtrace} of {!Memhog_vm.Os.obs}):
    every served request becomes a span whose queue / index-stall /
    value-stall / CPU-wait / compute components sum exactly to its
    recorded response time.
    @raise Invalid_argument when the offered rate is not positive. *)

val spawn : ?on_done:(unit -> unit) -> t -> Memhog_sim.Engine.proc
(** Start the generator and server fibers.  [on_done] runs (in the server
    fiber) once the arrival window has closed and the queue has drained —
    the natural place to stop the engine. *)

val asp : t -> Memhog_vm.Address_space.t
val account : t -> Memhog_sim.Account.t option
val finished : t -> bool

val queue_depth : t -> int
(** Current arrival-queue backlog — sampled periodically into the trace
    as a [Queue_depth] counter event. *)

val arrived : t -> int
val completed : t -> int

val recorded : t -> int
(** Responses recorded so far (completions past the warm-up skip). *)

val slo_ok : t -> int
(** Of the recorded responses, those within the SLO.  Together with
    {!recorded} this gives a running SLO-miss counter the telemetry
    scraper reads every cadence — {!summary} allocates and is meant for
    close-out, not per-scrape sampling. *)

type summary = {
  sm_offered_rps : float;
  sm_duration : Memhog_sim.Time_ns.t;
  sm_slo : Memhog_sim.Time_ns.t;
  sm_arrived : int;       (** requests generated *)
  sm_completed : int;     (** requests served *)
  sm_recorded : int;      (** served minus warm-up skips *)
  sm_max_queue : int;     (** deepest arrival-queue backlog observed *)
  sm_slo_ok : int;        (** recorded responses within [sm_slo] *)
  sm_mark : Memhog_sim.Time_ns.t option;   (** [sv_mark], echoed *)
  sm_post_recorded : int; (** recorded responses that arrived post-mark *)
  sm_post_slo_ok : int;   (** of those, within [sm_slo] *)
  sm_hist : Memhog_sim.Histogram.t;
      (** response times (arrival to completion), warm-up skipped; feeds
          p50/p99/p999 *)
}

val summary : t -> summary

val slo_attainment : summary -> float
(** Fraction of recorded responses within the SLO.  0.0 when none were
    recorded: a starved cell attained nothing, and reporting a vacuous
    1.0 would hide it. *)

val post_attainment : summary -> float
(** SLO attainment over the post-mark requests only (0.0 when no mark was
    set or nothing arrived after it) — the recovery figure a chaos
    scenario asserts on after its fault window closes. *)

(** Deterministic fault-injection plans.

    A chaos plan is a list of timed fault rules parsed from a compact spec
    string.  Components ask the plan at well-defined hook points — "should
    this disk request fail?", "is the releaser stalled right now?" — and
    the plan answers from per-rule deterministic {!Rng} streams, so a fixed
    [(seed, spec)] pair yields the same injected schedule on every run, at
    any [--jobs] level (each worker owns its engine and its own
    [Chaos.t]).

    {2 Spec syntax}

    Clauses separated by [;].  Each clause is either [seed=N] (overrides the
    plan seed) or

    {v kind@start-stop[:key=value,...] v}

    where [start]/[stop] are simulated times written as a number with a unit
    suffix ([ns], [us], [ms], [s], [m], [h]; bare numbers mean seconds), and
    [kind] is one of:

    - [disk-fault] — transient read/write errors.  Params: [p] (per-request
      fault probability, default 1), [retries] (retry bound, default 4),
      [fails] (fixed number of failed attempts; when absent, drawn uniformly
      in [1..retries]), [backoff] (base backoff delay, default 500us).
    - [disk-slow] — latency spike: positioning and transfer times are
      multiplied by [factor] (default 4).
    - [releaser-stall] / [daemon-stall] — the releaser / paging daemon
      sleeps until the window closes instead of working.
    - [releaser-drop] — release directives reaching the releaser are
      discarded with probability [p] (default 1).
    - [pressure] — a phantom competitor grabs [pages] free frames (default
      64) at [start] and holds them for [hold] (default 1s), slamming
      [tot_freemem] the way a surging sibling process would.
    - [net-partition] — the far-memory link drops requests with probability
      [p] (default 1): every affected request runs to its timeout, is
      aborted, and re-issued by the backend.
    - [net-brownout] — far-memory degradation: round-trip latency is
      multiplied by [factor] and/or the link rate is derated to [bandwidth]
      (a fraction in (0,1]).  At least one of the two must be given a
      non-neutral value.
    - [net-jitter] — with probability [p], a uniform draw in [0,latency] is
      added to each far-memory round trip ([latency] is required and must
      be positive).

    Malformed [latency]/[bandwidth] arguments (or a [net-jitter] clause
    without a latency) fail the parse rather than silently degrading to the
    defaults.

    Example: a disk brown-out, then a pressure spike while it recovers:

    {v disk-fault@10s-20s:p=0.5,retries=4;pressure@18s-30s:pages=256,hold=8s v} *)

type t

type stats = {
  mutable disk_faults : int;  (** requests that drew >= 1 injected failure *)
  mutable disk_retries : int;  (** individual failed attempts *)
  mutable disk_backoff_ns : int;  (** total injected backoff delay *)
  mutable slow_requests : int;  (** requests served under a disk-slow rule *)
  mutable releaser_stall_ns : int;
  mutable daemon_stall_ns : int;
  mutable directives_dropped : int;  (** release directives discarded *)
  mutable pressure_spikes : int;
  mutable pressure_pages : int;  (** frames grabbed across all spikes *)
  mutable net_partition_drops : int;  (** far-memory requests black-holed *)
  mutable net_slow_requests : int;  (** requests served under net-brownout *)
  mutable net_jitter_ns : int;  (** total injected far-memory jitter *)
}

val none : t
(** The empty plan: injects nothing, costs nothing. *)

val is_none : t -> bool
(** [true] iff the plan has no rules ({!none} or an empty spec). *)

val parse : ?seed:int -> string -> (t, string) result
(** Parse a spec.  [seed] (default 0) seeds the per-rule random streams
    unless the spec itself carries a [seed=] clause. *)

val create : ?seed:int -> string -> t
(** Like {!parse} but raises [Invalid_argument] on a malformed spec. *)

val stats : t -> stats
(** Live counters, incremented as faults are drawn.  The record for
    {!none} is shared and stays zero. *)

(** {2 Hook points} *)

val disk_fault : t -> now:Time_ns.t -> (int * Time_ns.t) option
(** [disk_fault t ~now] asks whether the disk request starting at [now]
    should suffer transient failures.  [Some (k, backoff)] means the first
    [k] attempts fail (the attempt after them succeeds — injected faults
    are transient) and retry [i] should back off [backoff * 2^(i-1)]. *)

val note_disk_retry : t -> backoff:Time_ns.t -> unit
(** Account one failed attempt and its backoff delay. *)

val disk_slow_factor : t -> now:Time_ns.t -> float
(** Service-time multiplier at [now]: 1.0 when no [disk-slow] rule is
    active, otherwise the largest active [factor]. *)

val stall_until :
  t -> [ `Releaser | `Daemon ] -> now:Time_ns.t -> Time_ns.t option
(** [Some stop] when a stall window covers [now]: the daemon should sleep
    until [stop] instead of working. *)

val note_stall : t -> [ `Releaser | `Daemon ] -> Time_ns.t -> unit
(** Account a stall of the given duration. *)

val drop_directive : t -> now:Time_ns.t -> bool
(** Should a release directive arriving at [now] be discarded?  Draws from
    the rule's stream; counts the drop. *)

val pressure_spikes : t -> (Time_ns.t * int * Time_ns.t) list
(** [(start, pages, hold)] for every [pressure] rule, sorted by start
    time.  The OS spawns a phantom fiber that walks this list. *)

val note_pressure : t -> pages:int -> unit
(** Account one spike that actually grabbed [pages] frames. *)

val net_partitioned : t -> now:Time_ns.t -> bool
(** Should a far-memory request issued at [now] be black-holed?  Draws from
    the rule's stream; counts the drop. *)

val net_latency_factor : t -> now:Time_ns.t -> float
(** Far-memory round-trip multiplier at [now]: 1.0 when no [net-brownout]
    rule is active, otherwise the largest active [factor]. *)

val net_bandwidth_scale : t -> now:Time_ns.t -> float
(** Fraction of the nominal far-memory link rate available at [now]: 1.0
    when healthy, otherwise the smallest active [bandwidth]. *)

val net_jitter : t -> now:Time_ns.t -> Time_ns.t
(** Extra round-trip delay drawn for a request at [now] (0 when no
    [net-jitter] rule is active or the [p] draw passes). *)

(** {2 Retry backoff} *)

val backoff_delay : base:Time_ns.t -> cap:Time_ns.t -> attempt:int -> Time_ns.t
(** [backoff_delay ~base ~cap ~attempt] is the delay before retry [attempt]
    (1-based): [base * 2^(attempt-1)] saturating at [cap].  Monotone
    non-decreasing in [attempt], never below [base], never above [cap].
    Raises [Invalid_argument] unless [1 <= base <= cap] and [attempt >= 1].
    Shared by the disk-fault retry path and the far-memory re-issue path. *)

(** Single-disk service model.

    Each disk has one arm: requests serialize on it through a two-class
    queue.  Demand requests (a process is blocked on the result right now)
    are served before queued {e background} requests — prefetches and
    write-behind — the scheduling discipline every informed-prefetching
    system uses, since a prefetch is by definition work the disk can do
    later.  Within a class, requests are FIFO.  Service time is positioning
    (seek + rotational latency, skipped when the request is sequential with
    the previous one on this disk) plus media transfer.  Parameters default
    to a Seagate Cheetah 4LP, the drive used in the paper's testbed
    (Table 1). *)

open Memhog_sim

type params = {
  seek_ns : Time_ns.t;           (** average seek *)
  rotation_ns : Time_ns.t;       (** average rotational latency (half turn) *)
  transfer_ns_per_kb : Time_ns.t;(** media transfer cost per KB *)
  overhead_ns : Time_ns.t;       (** fixed per-request command overhead *)
  near_skip_ns : Time_ns.t;
      (** positioning cost for a short forward skip (same cylinder
          neighbourhood) instead of a full seek *)
  near_skip_span : int;          (** how many blocks ahead count as "near" *)
  request_timeout_ns : Time_ns.t;
      (** per-request deadline: a request whose total latency (queueing +
          injected retries + backoff + service) exceeds this is counted in
          {!timeouts}.  Accounting only — the request still completes. *)
}

val cheetah_4lp : params

type t

val create :
  ?params:params ->
  ?bus:Memhog_sim.Semaphore.t ->
  ?chaos:Memhog_sim.Chaos.t ->
  ?obs:Memhog_sim.Obs.t ->
  id:int ->
  unit ->
  t
(** [bus] is the SCSI adapter this disk hangs off: the media-transfer phase
    of each request holds it, so disks sharing an adapter serialize their
    transfers (positioning still overlaps).

    [obs] (default {!Memhog_sim.Obs.null}) is the observation bus.  Each
    request's completion is emitted on it as a [Disk_io] event on
    [Trace.disk_stream].  Its blame layer ({!Memhog_sim.Obs.reqtrace})
    receives per-request attribution for {e demand} requests: arm-queue
    waits (with the bypassed-background flag) and positioning+transfer
    service spans, charged to the calling fiber's pid.

    [chaos] (default {!Memhog_sim.Chaos.none}) injects transient failures
    and latency spikes: a faulted request retries with exponential backoff
    while holding the arm, each failed attempt paying command overhead, and
    a failed read invalidates the sequentiality state — the head's position
    is unknown after an error, so the successful retry pays full
    positioning instead of earning the sequential / near-skip discount.
    Injected faults are emitted on [obs], on [Trace.chaos_stream]. *)

val id : t -> int

val read :
  ?cat:Memhog_sim.Account.category ->
  ?background:bool ->
  t ->
  block:int ->
  bytes:int ->
  unit
(** Perform a read, blocking the calling process for queueing + service
    time.  [block] is a logical block number used only for sequentiality
    detection.  Wait + service time is charged to [cat] (default
    [Io_stall]).  [background] (default [false]) queues the request in the
    low-priority class: any demand request that arrives while it waits is
    served first. *)

val write :
  ?cat:Memhog_sim.Account.category ->
  ?background:bool ->
  t ->
  block:int ->
  bytes:int ->
  unit

val request :
  t ->
  cat:Memhog_sim.Account.category ->
  background:bool ->
  write:bool ->
  block:int ->
  bytes:int ->
  unit
(** {!read} or {!write} with every argument given, so the caller boxes no
    optional argument: the swap volume's path for every page it moves. *)

(** {1 Statistics} *)

val reads : t -> int
val writes : t -> int
val busy_time : t -> Time_ns.t
val sequential_hits : t -> int
val near_hits : t -> int

val faults_injected : t -> int
(** Requests that drew at least one injected transient failure. *)

val retry_attempts : t -> int
(** Individual failed attempts across all faulted requests. *)

val backoff_time : t -> Time_ns.t
(** Total injected backoff delay. *)

val timeouts : t -> int
(** Requests whose total latency exceeded [request_timeout_ns]. *)

val demand_bypasses : t -> int
(** Demand requests that overtook at least one queued background request —
    how often the two-class arm discipline actually mattered. *)

val queue_depth : t -> int
(** Requests currently waiting at (or occupying) the arm, both classes —
    a point-in-time gauge for the telemetry scraper. *)

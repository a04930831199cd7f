(** Structured event tracing for the simulator.

    A [Trace.t] is a preallocated ring buffer of typed events, each stamped
    with a simulated-ns timestamp and a {e stream} id.  Streams correspond to
    lanes in a timeline viewer: non-negative stream ids are process pids,
    negative ids are reserved for kernel daemons (see the [*_stream]
    constants below).

    The ring keeps each event as immediates — a packed kind/stream word,
    the timestamp and up to four int payloads in one preallocated int
    array, string payloads interned to ids — so [emit] allocates nothing
    and [iter] decodes slots back into events.  A ring of capacity 0
    ([null]) is disabled: [emit] on it is a single branch.

    Simulator layers do not emit here directly: they emit through the
    observation bus ({!Obs}), which feeds this ring and the lifecycle
    ledger, and guard event construction with {!Obs.on} so that disabled
    observation builds no event values at all:

    {[
      if Obs.on obs then
        Obs.emit obs ~time:(Engine.now ()) ~stream:pid
          (Trace.Hard_fault { vpn })
    ]}

    When the buffer is full the oldest events are overwritten and counted in
    [dropped].

    Events that descend from a compiler directive carry a [site] field: the
    static directive tag ({!Memhog_compiler.Pir.directive}[.d_tag]) threaded
    through the run-time layer, or {!no_site} when the event was not caused
    by a directive (demand activity, daemon-initiated work). *)

type event =
  (* VM-layer events (lib/vm/os.ml). *)
  | Hard_fault of { vpn : int }
  | Soft_fault of { vpn : int }
  | Validation_fault of { vpn : int }
  | Zero_fill of { vpn : int }
  | Rescue of { vpn : int; for_prefetch : bool; site : int }
  | Prefetch_issued of { vpn : int; site : int }
  | Prefetch_dropped of { vpn : int; site : int }
  | Prefetch_raced of { vpn : int; site : int }
  | Prefetch_done of { vpn : int; site : int; ns : int }
      (** a prefetch that brought (or rescued) the page in; [ns] is the I/O
          span the later reference will not pay *)
  | Daemon_steal of { vpn : int; owner : int }
  | Daemon_invalidate of { vpn : int; owner : int }
  | Releaser_free of { vpn : int; owner : int; site : int }
  | Release_requested of { owner : int; count : int }
  | Release_skipped of { vpn : int; owner : int; site : int }
  | Writeback_complete of { vpn : int; owner : int }
  | Frame_reused of { vpn : int; owner : int }
      (** a frame freed by release/steal was handed to another allocation:
          the free genuinely relieved memory pressure *)
  (* Runtime-layer events (lib/runtime/runtime.ml). *)
  | Rt_prefetch_sent of { vpn : int; site : int }
      (** prefetch intent accepted by the run-time layer (pre-OS) *)
  | Rt_release_hint of { vpn : int; site : int; priority : int }
      (** release hint from the application, with its Eq. 2 priority *)
  | Rt_release_sent of { vpn : int; site : int }
      (** release forwarded to the OS (immediate or drained) *)
  | Rt_release_filtered of { vpn : int; reason : string; site : int }
  | Rt_release_buffered of { vpn : int; tag : int; priority : int }
  | Rt_release_issued of { count : int }
  | Rt_release_drained of { count : int }
  | Rt_stale_dropped of { vpn : int; site : int }
  (* Disk-layer events (lib/disk/disk.ml). *)
  | Disk_io of { disk : int; block : int; write : bool; ns : int }
  (* Periodic samples (counters in the Chrome exporter). *)
  | Free_depth of { pages : int }
  | Rss_sample of { owner : int; pages : int }
  | Upper_limit_sample of { owner : int; pages : int }
  | Queue_depth of { owner : int; depth : int }
      (** open-loop server request-queue depth, sampled alongside RSS *)
  (* Application phases (lib/exec). *)
  | Phase_begin of { name : string }
  | Phase_end of { name : string }
  (* Fault injection ({!Chaos}) and the runtime's degradation governor. *)
  | Chaos_disk_fault of { disk : int; block : int; attempt : int }
  | Chaos_stall of { who : string; until : int }
  | Chaos_drop_directive of { count : int }
  | Chaos_pressure of { pages : int; hold : int }
  | Chaos_pressure_end of { pages : int }
  | Governor_transition of {
      level_from : int;
      level_to : int;
      drop_pct : int;  (** window prefetch-drop rate, percent *)
      stale_pct : int;  (** window release-badness rate, percent *)
    }
  (* Tiered backing store (lib/vm/tiers.ml and the lib/disk backends).
     [page] is the swap page id (the striped-swap address), not a vpn. *)
  | Tier_demote of { page : int; tier : int; site : int }
      (** the router placed a released page's contents in [tier] *)
  | Tier_fetch of { page : int; tier : int }
      (** a fault/prefetch was served from [tier] (the entry is consumed) *)
  | Tier_timeout of { page : int; tier : int; attempt : int }
      (** a far-memory attempt was aborted at its deadline and re-issued *)
  | Tier_failover of { page : int; tier_from : int; tier_to : int }
      (** a demotion was redirected because the target tier is unhealthy *)
  | Tier_rescue of { page : int; site : int }
      (** a read against a dead tier was served from its failover copy *)
  | Breaker_transition of { tier : int; state_from : int; state_to : int }
      (** circuit-breaker edge; states are 0=closed, 1=half-open, 2=open *)
  (* Telemetry alert rules ({!Telemetry}). *)
  | Alert_fire of { rule : string; value_ppm : int }
      (** an alert rule crossed its fire threshold; [value_ppm] is the
          signal value scaled by 1e6 (exact enough for a trace, and keeps
          the payload an immediate) *)
  | Alert_clear of { rule : string; value_ppm : int }
      (** the rule crossed back over its clear threshold *)

val no_site : int
(** Site id (-1) for events not attributable to a compiler directive. *)

type t

val null : t
(** A permanently disabled trace (capacity 0); [emit] on it is a no-op. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is the ring size in events (default 262144); the ring
    takes six words per event, preallocated.  Capacity 0 is disabled. *)

val enabled : t -> bool
(** True when the ring can hold an event (capacity > 0). *)

val emit : t -> time:Time_ns.t -> stream:int -> event -> unit
(** O(1); overwrites the oldest event when full. No-op when disabled. *)

val set_stream_name : t -> int -> string -> unit
(** Label a stream (process or daemon lane) for exporters.  A no-op on a
    disabled ring. *)

val stream_name : t -> int -> string option

val stream_ids : t -> int list
(** All stream ids that were named, sorted. *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val iter : t -> (time:Time_ns.t -> stream:int -> event -> unit) -> unit
(** Iterate retained events oldest-first (timestamps are monotonically
    non-decreasing because emission follows simulated time). *)

val clear : t -> unit

val describe : event -> string * (string * string) list
(** The event's kind as a short stable name (e.g. ["hard_fault"]), beside
    its payload fields as key/value strings in declaration order: ints in
    decimal, bools as ["true"]/["false"], strings as they are.  Exporters
    and {!counts} name events by it, so a kind's name and fields are
    written in this one place. *)

val counts : t -> (string * int) list
(** Retained event tally by the name {!describe} gives each event, sorted
    by name. *)

(** {1 Reserved daemon stream ids} *)

val daemon_stream : int
(** paging (clock) daemon: -1 *)

val releaser_stream : int
(** releaser daemon: -2 *)

val writeback_stream : int
(** writeback completions: -3 *)

val kernel_stream : int
(** kernel-wide samples (free-list depth): -4 *)

val chaos_stream : int
(** injected-fault events ({!Chaos} hooks): -5 *)

val disk_stream : int
(** disk request completions ({!Memhog_disk.Disk}): -6 *)

val tier_stream : int
(** tiered-backing-store router and breaker events: -7 *)

val telemetry_stream : int
(** telemetry alert fire/clear events: -8 *)

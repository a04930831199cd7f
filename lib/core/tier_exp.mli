(** The tiered-backing-store experiment: a Figure 7/8-style matrix of one
    out-of-core workload over backend mixes (local swap only, far memory,
    compressed RAM, both), plus the robustness headline — a serving cell
    whose far-memory tier is hard-partitioned mid-window while demotions
    and fetches are in flight.

    The partition scenario is the acceptance test of the fault-tolerant
    store: the cell must complete with no fiber blocked on the dead tier,
    demotions must fail over to the durable swap copy, in-flight reads
    must be rescued from it, the circuit breaker must open and probe
    closed again, and the server's SLO attainment after the fault window
    must recover.  {!check} asserts all of that; [memhog gate tiers]
    freezes the numbers byte-for-byte in [bench/TIER_metrics.json].

    Every cell is an independent simulation; results are bit-identical at
    any [jobs] level. *)

type mix = { mx_name : string; mx_tiers : string option }
(** One backend mix of the matrix: [None] is the swap-only baseline. *)

val mixes : mix list
(** The matrix's backend mixes, each run under EMBAR/B: swap, far, zram,
    far+zram. *)

val partition_tiers : string
(** The partition scenario's tier spec: far memory with a short breaker
    hold-off so the half-open probe cycle fits the serving window. *)

val partition_chaos : string
(** Hard partition of the far link mid-window ([net-partition@6s-9s]). *)

val partition_mark : Memhog_sim.Time_ns.t
(** The server's recovery mark: SLO attainment is tallied separately for
    requests arriving after this offset, one second past the heal. *)

type t = {
  tx_machine : Machine.t;
  tx_mixes : (mix * Experiment.result) list;
  tx_rate : float;               (** partition cell's offered load (rps) *)
  tx_partition : Experiment.result;
}

val run :
  ?machine:Machine.t ->
  rate:float ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  unit ->
  t
(** Run the matrix and the partition scenario on [jobs] worker domains.
    The partition cell co-runs the EMBAR/R hog (dirty releases, so
    demotions stay in flight through the fault window; aggressive, so
    the governor's tier-aware rung is exercised while the breaker is
    open) with the open-loop server at [rate] rps. *)

val results : t -> Experiment.result list
(** Matrix cells in mix order, then the partition cell — ready for
    {!Metrics.of_results}. *)

val check : t -> unit
(** The experiment's built-in gates.  Matrix: invariants hold and each
    configured fast tier saw writes.  Partition: invariants hold, the
    server drained its queue (no fiber blocked forever), nonzero far
    timeouts, failovers, rescues and breaker transitions, and post-mark
    SLO attainment at least the window-inclusive figure.
    @raise Failure naming the first violated gate. *)

val render : t -> string
(** Plain-text tables: Figure 7 components by mix, per-tier traffic by
    mix, and the partition cell's robustness close-out. *)

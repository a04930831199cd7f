(** The tiered-backing-store experiment: a Figure 7/8-style matrix of one
    out-of-core workload over backend mixes (local swap only, far memory,
    compressed RAM, both), plus the robustness headline — a serving cell
    whose far-memory tier is hard-partitioned mid-window while demotions
    and fetches are in flight.

    The partition scenario is the acceptance test of the fault-tolerant
    store: the cell must complete with no fiber blocked on the dead tier
    (the runner, {!Figures.simulate}, checks that every arrived request
    completed), demotions must fail over to the durable swap copy,
    in-flight reads must be rescued from it, the circuit breaker must open
    and probe closed again, and the server's SLO attainment after the
    fault window must recover.  {!check} asserts the rest; [memhog gate
    tiers] freezes the numbers byte-for-byte in [bench/TIER_metrics.json].

    Every cell is an independent simulation; results are bit-identical at
    any [jobs] level. *)

type mix = { mx_name : string; mx_tiers : string option }
(** One backend mix of the matrix (swap, far, zram, far+zram, each under
    EMBAR/B): [None] is the swap-only baseline. *)

val partition_chaos : string
(** Hard partition of the far link mid-window ([net-partition@6s-9s]). *)

val partition_cell :
  ?chaos:string -> ?telemetry:bool -> Machine.t -> rate:float -> Figures.cell
(** The partition scenario's serving cell: the EMBAR/R hog next to the
    open-loop server at [rate] rps, far memory with a short breaker
    hold-off (so the half-open probe cycle fits the serving window), a
    trace ring, chaos [chaos] (default {!partition_chaos}), the server's
    recovery mark one second past the heal, and with [telemetry] the full
    probe set and alert rules. *)

type t = {
  tx_machine : Machine.t;
  tx_mixes : (mix * Experiment.result) list;
  tx_partition : Experiment.result;
}

val plan :
  ?machine:Machine.t ->
  rate:float ->
  unit ->
  Figures.cell list * (Figures.lookup -> t)
(** The matrix's cells in mix order, then the {!partition_cell} at
    [rate] rps, and how to read the experiment back from a lookup that
    holds them. *)

val metrics : t -> Metrics.t
(** The experiment's document: the matrix cells in mix order, then the
    partition cell, labelled [tiers MACHINE] like
    [bench/TIER_metrics.json], which [memhog gate tiers] writes from this
    document. *)

val check : t -> unit
(** The experiment's built-in gates.  Matrix: each configured fast tier
    saw writes.  Partition: nonzero far timeouts, failovers, rescues and
    breaker transitions, and post-mark SLO attainment at least the
    window-inclusive figure.
    @raise Failure naming the first violated gate. *)

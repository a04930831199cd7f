(** The observability experiment: the {!Tier_exp} brownout scenario
    (far tier hard-partitioned mid-serve) re-run with the full telemetry
    probe set and the default alert rules.

    The scenario is the acceptance test of the unified registry: with no
    other instrumentation, the alert timeline alone must show the
    breaker flapping and the SLO burning during the partition window,
    and both alerts clearing after the link heals.  The cell is
    byte-deterministic at any [--jobs] level, so [memhog gate obs] freezes
    its metrics document (telemetry object included) at tolerance 0. *)

type t = { ox_result : Experiment.result }

val brownout_chaos : string
(** {!Tier_exp.partition_chaos} plus a concurrent [disk-slow] over the
    same window: the breaker absorbs a clean partition so well that the
    server never notices, so the brownout also degrades the swap volume
    the failover traffic lands on — that is what makes the SLO burn. *)

val run : ?machine:Machine.t -> rate:float -> unit -> t
(** One serving cell: the EMBAR/R hog next to the open-loop server, far
    tier under {!Tier_exp.partition_tiers}, chaos {!brownout_chaos},
    telemetry on. *)

val results : t -> Experiment.result list
(** Ready for {!Metrics.of_results}. *)

val telemetry : t -> Memhog_sim.Telemetry.t
(** The cell's registry — feed {!Trace_export.write_telemetry} to dump
    the OpenMetrics snapshot and the CSVs [memhog top] replays. *)

val check : t -> unit
(** The experiment's built-in gates: every expected probe registered, the
    [breaker_flap] rule and an SLO burn-rate rule each fired inside (or
    just after) the partition window and cleared before the run ended,
    and the timeline alternates fire/clear per rule.
    @raise Failure on the first violated invariant. *)

(** The [perf] entry of {!Gate}: the work counters of four throughput
    cells.

    Each cell runs one workload variant with the page-lifecycle ledger off
    and records what the simulation did — engine events executed, hard and
    soft faults, iterations, simulated ns.  These are functions of the
    simulation alone: identical at any job count, with or without the
    ledger, and gated at tolerance 0 by [memhog gate perf] against
    [bench/PERF_metrics.json].  How fast the simulator retires that work is
    measured by the benchmark in [perfbench/], not here. *)

type cell = { pc_workload : string; pc_variant : Experiment.variant }

val plan :
  ?cells:cell list ->
  machine:Machine.t ->
  unit ->
  Figures.cell list * (Figures.lookup -> Metrics_io.json)
(** The ledger-off cells (default: the perf gate's grid, MATVEC/O,
    MATVEC/R, EMBAR/B, CGM/P) and how to read the document
    [{"schema": "memhog-perf", "schema_version": 2, "machine": ...,
    "ledger": false, "cells": [{"label", "work": {"events", "hard_faults",
    "soft_faults", "iterations", "sim_ns"}}, ...]}] back from a lookup
    that holds them. *)

val run :
  ?cells:cell list -> machine:Machine.t -> jobs:int -> unit -> Metrics_io.json
(** {!plan}, simulated on [jobs] worker domains. *)

val load_file : path:string -> (Metrics_io.json, string) result
(** Parse a perf file; fails when unreadable, malformed, or not carrying
    [schema = "memhog-perf"] / the expected [schema_version]. *)

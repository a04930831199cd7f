(** The serving experiment grid: {!Memhog_exec.Server} (open-loop key-value
    traffic with Zipfian popularity) co-run with an out-of-core memory hog,
    swept over offered load x hog variant.

    This is ROADMAP item 5's experiment axis — tail latency vs offered load
    under memory pressure — and the serving analogue of Figures 1/10: at
    the same offered load, an un-released hog (O) collapses the server's
    p999 through queueing on hard faults, while buffered releasing (B)
    keeps the free pool healthy and the tail flat.

    Every cell is an independent simulation; results are bit-identical at
    any [jobs] level. *)

type cell = { sc_rate : float; sc_variant : Experiment.variant }

type t = {
  s_machine : Machine.t;
  s_workload : string;  (** the hog *)
  s_slo : Memhog_sim.Time_ns.t;
  s_chaos : string option;
  s_cells : (cell * Experiment.result) list;  (** grid order: rate-major *)
}

val default_rates : float list
(** 3200 and 4480 rps: at and beyond the knee where the un-released hog's
    page stealing overwhelms the server's self-healing re-prefetches on
    the paper machine, so the sweep shows the p999 collapse (the released
    hog keeps the tail flat through both). *)

val default_variants : Experiment.variant list
(** O and B — the paper's bookends. *)

val default_hog : string
(** MATVEC, the hog of the paper's interactivity experiments. *)

val run :
  ?machine:Machine.t ->
  ?workload:string ->
  ?rates:float list ->
  ?variants:Experiment.variant list ->
  ?slo:Memhog_sim.Time_ns.t ->
  ?duration:Memhog_sim.Time_ns.t ->
  ?chaos:string ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  unit ->
  t
(** Run the grid on [jobs] worker domains.  [chaos] applies the same
    fault-injection spec to every cell (rebuilt per cell from the machine
    seed, preserving determinism).
    @raise Failure when [workload] is unknown. *)

val cells : t -> (cell * Experiment.result) list
val results : t -> Experiment.result list
(** Flattened grid-order results, ready for {!Metrics.of_results}. *)

val serving_exn : Experiment.result -> Memhog_exec.Server.summary
(** The serving close-out of a grid cell.
    @raise Invalid_argument on a non-serve result. *)

val blame_exn : Experiment.result -> Memhog_sim.Reqtrace.summary
(** The per-request blame close-out of a grid cell.
    @raise Invalid_argument on a non-serve result. *)

val slowest : t -> Memhog_sim.Reqtrace.span option
(** The slowest sampled request across the whole grid (the first such
    cell in grid order on a tie), or [None] when no cell recorded one —
    feed {!Trace_export.write_blame_span} to open its critical path. *)

val render : t -> string
(** Plain-text tail-latency table (p50/p99/p999 + SLO attainment), plus an
    explicit warning line for any cell that recorded no responses — its
    0% attainment is vacuous, not measured. *)

val render_blame : t -> string
(** Plain-text blame tables: mean per-request response-time decomposition
    by percentile band (the [memhog blame] headline — components sum to
    the response column exactly), plus the prefetch-race and demand-disk
    attribution counters per cell. *)

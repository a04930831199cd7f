(** The serving experiment grid: {!Memhog_exec.Server} (open-loop key-value
    traffic with Zipfian popularity) co-run with an out-of-core memory hog,
    swept over offered load x hog variant.

    This is ROADMAP item 5's experiment axis — tail latency vs offered load
    under memory pressure — and the serving analogue of Figures 1/10: at
    the same offered load, an un-released hog (O) collapses the server's
    p999 through queueing on hard faults, while buffered releasing (B)
    keeps the free pool healthy and the tail flat.

    The grid is {!Figures.cell}s run by {!Figures.simulate}: every cell is
    an independent simulation, so results are bit-identical at any [jobs]
    level, and each passes the runner's checks (OS invariants, every
    arrived request completed). *)

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

val plan :
  ?machine:Machine.t ->
  ?workload:string ->
  ?rates:float list ->
  ?variants:Experiment.variant list ->
  ?slo:Memhog_sim.Time_ns.t ->
  ?duration:Memhog_sim.Time_ns.t ->
  ?chaos:string ->
  unit ->
  Figures.cell list * (Figures.lookup -> t)
(** The grid's cells, rate-major, and how to read it back from a lookup
    that holds them.  [chaos] applies the same fault-injection spec to
    every cell (rebuilt per cell from the machine seed, preserving
    determinism).  An unknown [workload] fails when the cells are
    simulated: {!Figures.simulate} raises [Failure] naming the valid
    set. *)

val cells : t -> (cell * Experiment.result) list
val results : t -> Experiment.result list
(** Flattened grid-order results. *)

val metrics : t -> Metrics.t
(** The grid's document, cells in grid order, labelled
    [serve HOG MACHINE] (plus [, chaos SPEC] under a fault plan) like
    [bench/SERVE_metrics.json], which [memhog gate serve] writes from
    this document. *)

val serving_exn : Experiment.result -> Memhog_exec.Server.summary
(** The serving close-out of a grid cell.
    @raise Invalid_argument on a non-serve result. *)

val slowest : t -> Memhog_sim.Reqtrace.span option
(** The slowest sampled request across the whole grid (the first such
    cell in grid order on a tie), or [None] when no cell recorded one —
    feed {!Trace_export.write_blame_span} to open its critical path. *)

val tail : t -> string
(** Figures 1/10 retold for the server, the one cross-cell figure
    {!Metrics_io.render} cannot draw: p999 and SLO attainment per offered
    load and hog variant, with the O/B p999 ratio. *)

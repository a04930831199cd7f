(** The cell plan, and the drivers that regenerate every table and figure
    of the paper's evaluation (section 4) plus the ablation studies listed
    in DESIGN.md.

    The evaluation is a few tables over one space of simulations: a
    workload crossed with the variants O/P/R/B and an interactive sleep,
    plus one machine knob per ablation.  Each experiment declares the
    {!cell}s it reads; {!simulate} runs each distinct cell once, and the
    experiment renders its text from the resulting {!lookup}.  All output
    is plain text, printed in the same rows/series the paper reports.
    Every other grid in the library ({!Serve}, {!Tier_exp}, {!Perf}, the
    {!Gate} entries) is cells and a reading of the same kind: {!simulate}
    is the only code that runs a grid. *)

(** {1 Cells and the runner} *)

type corun = {
  c_machine : Machine.t;
  c_workload : string;  (** a {!Memhog_workloads.Workload} name *)
  c_variant : Experiment.variant;
  c_sleep : Memhog_sim.Time_ns.t option;
      (** [Some s]: co-run the interactive task at sleep [s], for
          {!Experiment.run_length}[ s]; [None]: a batch cell *)
  c_conservative : bool;
  c_reactive : bool;
  c_release_target : int option;
  c_chaos : string option;  (** fault plan ({!Memhog_sim.Chaos} spec) *)
  c_traced : bool;
      (** attach a trace ring.  Part of the key: the ring's drop counter is
          a telemetry series, so a traced cell never stands in for an
          untraced one. *)
  c_serve : Memhog_exec.Server.cfg option;
      (** co-run the open-loop server ({!Experiment.serve_cfg}) *)
  c_tiers : string option;  (** tiered store ({!Memhog_vm.Tiers} spec) *)
  c_telemetry : bool;  (** full probe set and alert rules *)
  c_governor : Memhog_runtime.Runtime.governor_cfg option;
  c_ledger : bool;  (** collect the page-lifecycle ledger *)
}
(** The inputs of one {!Experiment.setup}, as the setup receives them: a
    field left at its default differs from the same value passed
    explicitly. *)

(** One simulation, as plain data naming every input that can move a
    printed number.  Two structurally equal cells are the same
    simulation. *)
type cell =
  | Corun of corun  (** {!Experiment.run}, with or without the interactive task *)
  | Alone of Machine.t * Memhog_sim.Time_ns.t
      (** the interactive task alone at this sleep
          ({!Experiment.run_interactive_alone}) *)
  | Two_hogs of Machine.t * Memhog_compiler.Pir.variant
      (** MATVEC and EMBAR, two passes each, sharing one OS *)

val corun :
  ?sleep:Memhog_sim.Time_ns.t ->
  ?conservative:bool ->
  ?reactive:bool ->
  ?release_target:int ->
  ?chaos:string ->
  ?traced:bool ->
  ?serve:Memhog_exec.Server.cfg ->
  ?tiers:string ->
  ?telemetry:bool ->
  ?governor:Memhog_runtime.Runtime.governor_cfg ->
  ?ledger:bool ->
  Machine.t ->
  string ->
  Experiment.variant ->
  cell
(** A {!Corun} cell; every flag defaults to off, except [ledger] (on). *)

val distinct : cell list -> cell list
(** The cells without duplicates (structural equality), each at its first
    position. *)

type lookup
(** The outcome of every cell a plan simulated. *)

val simulate : ?jobs:int -> ?log:(string -> unit) -> cell list -> lookup
(** Run each {!distinct} cell once, on [jobs] (default 1) worker domains
    (a {!Pool}).  Every cell owns its engine, OS and RNG, so the lookup
    is identical for any [jobs].  [log] gets one line per cell when it
    starts; calls may come from worker domains but are serialized.  Each
    co-run result passes {!Experiment.check_result}, which names the cell
    by its inputs, before anything reads it.  The first exception a cell
    raises is re-raised: at [jobs <= 1] the cells after it never run; with
    more jobs it is re-raised after every other cell has finished. *)

val result : lookup -> cell -> Experiment.result
(** A co-run cell's result.
    @raise Invalid_argument when the cell is not in the lookup or is not a
    {!Corun}. *)

val write_traces : ?log:(string -> unit) -> dir:string -> lookup -> unit
(** Write each traced cell's ring as Chrome trace_event JSON into [dir],
    one [WORKLOAD-VARIANT.trace.json] per cell. *)

(** {1 Experiments} *)

type experiment = {
  id : string;
  cells : cell list;  (** what [render] reads *)
  render : lookup -> string;
}

val experiments : ?chaos:string -> ?traced:bool -> Machine.t -> experiment list
(** The 19 experiments of [bench/main.exe], in order:
    - [table1]: hardware characteristics;
    - [table2]: benchmark characteristics, with the compiler's analysis
      statistics;
    - [fig1]: interactive response vs sleep, MATVEC original vs
      prefetching (section 1.1's motivating experiment);
    - [fig7], [fig8], [table3], [fig9], [fig10b], [fig10c]: the {!matrix}
      read six ways: normalized execution time by component; soft faults
      from the daemon's reference-bit invalidations; daemon activations and
      steals, O vs R; who freed pages and how many were rescued; interactive
      response normalized to alone; interactive hard faults per sweep;
    - [fig10a]: {!fig10a} on MATVEC;
    - [ablation-batch]: the run-time layer's release batch size (the paper
      fixes 100 pages);
    - [ablation-hwbits]: hardware vs software-simulated reference bits
      (section 6's question);
    - [ablation-conservative]: aggressive insertion vs the idealized
      section-2.3.2 rule;
    - [ablation-rescue]: free-list rescue on and off;
    - [ablation-drop]: dropping prefetches when memory is low vs blocking;
    - [ablation-tlb]: prefetched pages making no TLB entry (section 3.1.2)
      vs filling it;
    - [ext-freemem]: free memory over time for MATVEC O/P/R/B next to the
      interactive task;
    - [ext-reactive]: a reactive (VINO-style) scheme vs pro-active
      releasing (section 2.2's argument);
    - [ext-two-hogs]: two out-of-core programs sharing the machine, both
      original vs both prefetch+release.

    [chaos] and [traced] apply to the matrix cells only. *)

val fig10a :
  ?workload:string -> ?sleeps_s:float list -> Machine.t -> experiment
(** Interactive response vs sleep time next to [workload] (default
    MATVEC) for all four variants, plus the task alone, at each of
    [sleeps_s] (default 0, 0.5, 1, 2, 5, 10, 20 and 30 s). *)

(** {1 The Figure 7 matrix} *)

type matrix = {
  mx_machine : Machine.t;
  mx_sleep : Memhog_sim.Time_ns.t;
  mx_results : (string * (Experiment.variant * Experiment.result) list) list;
  mx_alone : Experiment.interactive_summary;
}

val matrix :
  machine:Machine.t ->
  ?workloads:string list ->
  ?chaos:string ->
  ?traced:bool ->
  unit ->
  cell list * (lookup -> matrix)
(** The matrix's cells and how to read it back from a lookup that holds
    them: 4 variants per workload (default: all six), each next to the
    interactive task at a 5 s sleep (the setting of Figures 7-10b/c), plus
    the interactive-alone baseline.  [chaos] applies to every out-of-core
    cell, never to the baseline; [traced] attaches a trace ring to each
    of them ({!write_traces}). *)

val matrix_results : matrix -> Experiment.result list
(** Every cell result, flattened in matrix order (workloads in submission
    order, variants O/P/R/B within each) — the order {!Metrics.of_matrix}
    serializes cells in. *)

(** {1 Tables without simulation} *)

val table1 : ?machine:Machine.t -> unit -> string
(** Hardware characteristics. *)

val table2 : ?machine:Machine.t -> unit -> string
(** Benchmark characteristics: what each computes, data-set size, traits,
    and the compiler's analysis statistics. *)

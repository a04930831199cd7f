(** Experiment driver: build a machine, run one out-of-core application
    variant (optionally next to the interactive task), collect every metric
    the paper's evaluation reports.

    The four variants match the bars of Figures 7-10:
    - [O] — the original program, no paging directives;
    - [P] — compiler-inserted prefetching only;
    - [R] — prefetching + releasing, releases issued aggressively;
    - [B] — prefetching + releasing, releases buffered by priority. *)

type variant = O | P | R | B

val variant_name : variant -> string
val all_variants : variant list

val pir_variant : variant -> Memhog_compiler.Pir.variant
(** The code a variant compiles to: O the original, P prefetching, R and B
    prefetching and releasing (they differ in the run-time policy). *)

type breakdown = {
  b_user : Memhog_sim.Time_ns.t;
  b_system : Memhog_sim.Time_ns.t;
  b_io_stall : Memhog_sim.Time_ns.t;
  b_resource_stall : Memhog_sim.Time_ns.t;
}

val breakdown_total : breakdown -> Memhog_sim.Time_ns.t

val breakdown_of_account : Memhog_sim.Account.t -> breakdown
(** Project an account onto the four Figure 7 components (dropping
    [Sleep]). *)

type interactive_summary = {
  is_avg_response : Memhog_sim.Time_ns.t option; (** None: too few sweeps *)
  is_avg_hard_faults : float option;
  is_alone_response : Memhog_sim.Time_ns.t;
      (** the task with the machine to itself: its ideal warm response
          ({!Memhog_exec.Interactive.alone_response}, pure compute, no
          faults), the baseline of Figures 1 and 10(a) and the normalizer
          of Figure 10(b) *)
  is_breakdown : breakdown;  (** the task's Figure 7 components *)
  is_response_hist : Memhog_sim.Histogram.t;
      (** per-sweep response times, warm-up sweep skipped *)
}

type result = {
  r_workload : string;
  r_variant : variant;
  r_elapsed : Memhog_sim.Time_ns.t;   (** out-of-core app completion time *)
  r_iterations : int;                 (** main-computation passes executed *)
  r_breakdown : breakdown;            (** Figure 7 components *)
  r_account : Memhog_sim.Account.t;
      (** the app driver's raw per-category account ([r_breakdown]'s
          source), kept so totals can be built with
          {!Memhog_sim.Account.add_to} *)
  r_app_stats : Memhog_vm.Vm_stats.proc;
  r_global : Memhog_vm.Vm_stats.global;
  r_runtime : Memhog_runtime.Runtime.stats option;
  r_interactive : interactive_summary option;
  r_app_tlb_misses : int;
  r_telemetry : Memhog_sim.Telemetry.t;
      (** the unified telemetry registry, scraped every 100 ms of simulated
          time.  Always carries the legacy series — "free" (free pages),
          "app-rss", "app-limit" (the Equation 1 upper limit the OS
          published), "inter-rss" when the interactive task is present —
          plus a "trace-dropped" counter.  With [setup.telemetry] the full
          probe set (VM, disk, tiers, runtime, server) and the default
          alert rules are registered too.  Cell-private and scraped on a
          deterministic sim-time cadence: byte-identical at any [--jobs]. *)
  r_swap_reads : int;
  r_swap_writes : int;
  r_disk_busy : Memhog_sim.Time_ns.t;
      (** summed busy time across disks (parallelism = busy / elapsed) *)
  r_invariants_ok : bool;
      (** true in any result {!run} returns: a run whose OS invariants do
          not hold raises instead ({!check_invariants}) *)
  r_trace : Memhog_sim.Trace.t;
      (** the event trace collected during the run ({!Memhog_sim.Trace.null}
          when tracing was not requested in the setup) *)
  r_fault_hist : Memhog_sim.Histogram.t;
      (** demand-fault service times (simulated ns), from {!Memhog_vm.Os} *)
  r_prefetch_hist : Memhog_sim.Histogram.t;
      (** completed-prefetch service times (simulated ns) *)
  r_chaos : Memhog_sim.Chaos.stats option;
      (** injected-fault counters, when a chaos spec was active *)
  r_disk_timeouts : int;
      (** swap requests whose total latency (queueing + retries + service)
          exceeded the per-request deadline, summed over disks *)
  r_disk_bypasses : int;
      (** demand requests that overtook at least one queued background
          request at the arm scheduler, summed over disks *)
  r_tiers : Memhog_vm.Tiers.summary option;
      (** the tiered-store close-out (per-tier traffic and breaker
          counters, rescues, placement), when the cell ran with a
          [tiers] spec *)
  r_ledger : Memhog_sim.Ledger.summary;
      (** the page-lifecycle ledger's close-out: per-directive-site efficacy
          rows plus the wasted-work taxonomy.  Collected whenever
          [ledger_on] (the default; the ledger is cell-private and
          byte-deterministic at any [--jobs]); empty otherwise. *)
  r_sites : Memhog_compiler.Pir.site_info list;
      (** the compiled program's static directive sites, for joining ledger
          rows back to source-level descriptions *)
  r_events_executed : int;
      (** engine events popped and run during the cell — deterministic for a
          fixed setup, so it serves as a gated work counter for the
          throughput bench *)
  r_serving : Memhog_exec.Server.summary option;
      (** the open-loop server's close-out (arrivals, completions, SLO
          counters, response histogram), when the cell ran in serve mode *)
  r_reqtrace : Memhog_sim.Reqtrace.t;
      (** the per-request critical-path blame layer, live exactly when the
          cell ran in serve mode ({!Memhog_sim.Reqtrace.null} for batch
          cells).  {!Memhog_sim.Reqtrace.summarize} gives the additive
          response-time decomposition (queue / index stall / value stall /
          CPU wait / compute), the percentile-band blame table, prefetch
          race counters and demand-disk attribution; the sampled spans
          themselves are reachable too, e.g. to export the slowest
          request's critical path ({!Memhog_sim.Reqtrace.slowest}).
          Cell-private and byte-deterministic at any [--jobs]. *)
}

type setup = {
  machine : Machine.t;
  workload : Memhog_workloads.Workload.t;
  variant : variant;
  interactive_sleep : Memhog_sim.Time_ns.t option;
      (** [Some s]: co-run the section-1.1 interactive task with sleep
          [s], repeating the main computation for at least
          {!run_length}[ s] *)
  iterations : int option;  (** override the workload's default *)
  conservative : bool;      (** section-2.3.2 insertion rule ablation *)
  reactive : bool;
      (** section-2.2 alternative: run the release variant's code under the
          Reactive run-time policy, registered as the OS's eviction advisor
          instead of releasing proactively *)
  release_target : int option;
      (** pages drained per run-time buffering decision (paper: 100) *)
  trace : Memhog_sim.Trace.t option;
      (** collect kernel/runtime/application events into this trace *)
  chaos : string option;
      (** fault-injection plan ({!Memhog_sim.Chaos} spec), seeded with the
          machine seed; its presence also enables the run-time layer's
          degradation governor *)
  governor : Memhog_runtime.Runtime.governor_cfg option;
      (** explicit governor configuration (overrides the chaos default) *)
  ledger_on : bool;
      (** collect the page-lifecycle ledger (default).  The perf gate and
          perfbench's sinks-off runs disable it; the ledger never touches
          the engine, so work counters are identical either way. *)
  serve : Memhog_exec.Server.cfg option;
      (** [Some cfg]: serve mode — co-run the open-loop key-value server
          with the workload acting as the memory hog.  The run ends when
          the server's arrival window closes and its queue drains (the hog
          is cut off mid-iteration), and the cell's headline numbers are
          the server's tail latencies rather than the hog's elapsed time. *)
  tiers : string option;
      (** [Some spec]: install a {!Memhog_vm.Tiers} router over the swap
          volume ({!Memhog_vm.Tiers.spec_of_string} grammar) — released
          pages gain fast-tier copies routed by their Eq. 2 priorities,
          with health-checked failover back to the durable swap copy *)
  telemetry : bool;
      (** register the full telemetry probe set and the default alert rules
          (SLO burn, refault storm, free-list starvation, breaker flap,
          governor oscillation).  Off by default; the sampler fiber runs
          the same 100 ms cadence either way, so enabling telemetry never
          changes the engine schedule or any gated work counter. *)
}

val serve_cfg :
  ?slo:Memhog_sim.Time_ns.t ->
  ?duration:Memhog_sim.Time_ns.t ->
  machine:Machine.t ->
  ?mark:Memhog_sim.Time_ns.t ->
  rate_rps:float ->
  unit ->
  Memhog_exec.Server.cfg
(** Machine-relative serving configuration: keyspace shapes from
    {!Memhog_workloads.Kvserve.sizing}, seeded with the machine seed.
    Defaults: 30 ms SLO, 20 s arrival window.  [mark]
    (default off) additionally tallies SLO attainment over requests
    arriving after that offset — the recovery figure of the chaos
    scenarios. *)

val setup :
  ?machine:Machine.t ->
  ?interactive_sleep:Memhog_sim.Time_ns.t ->
  ?iterations:int ->
  ?conservative:bool ->
  ?reactive:bool ->
  ?release_target:int ->
  ?trace:Memhog_sim.Trace.t ->
  ?chaos:string ->
  ?governor:Memhog_runtime.Runtime.governor_cfg ->
  ?ledger_on:bool ->
  ?serve:Memhog_exec.Server.cfg ->
  ?tiers:string ->
  ?telemetry:bool ->
  workload:Memhog_workloads.Workload.t ->
  variant:variant ->
  unit ->
  setup
(** @raise Invalid_argument when [chaos] or [tiers] does not parse, when
    [iterations] is below 1, when [interactive_sleep] is negative, or when
    [serve]'s offered rate (finite), arrival window or SLO is not
    positive — before anything is simulated. *)

val run_length : Memhog_sim.Time_ns.t -> Memhog_sim.Time_ns.t
(** [run_length sleep] = max 45 s (8·sleep + 20 s): how long {!run} keeps
    repeating the hog's main computation next to the interactive task at
    this sleep, so every sleep gets enough sweeps to average over. *)

val check_crashes : what:string -> Memhog_sim.Engine.t -> unit
(** After [Engine.run]: @raise Failure naming [what] and the first process
    that crashed, if any did.  {!run} calls it, as does the two-hog cell of
    {!Figures}, so a crash never yields a result built from a partial
    run. *)

val check_invariants : what:string -> Memhog_vm.Os.t -> unit
(** After [Engine.run]: @raise Failure naming [what] and the first of
    {!Memhog_vm.Os.check_invariants} that does not hold.  {!run} calls it
    after {!check_crashes}, as does the two-hog cell of {!Figures}: each
    cell's OS is checked by the code that built it. *)

val check_result : what:string -> result -> unit
(** The oracle every simulated grid cell passes ({!Figures.simulate} calls
    it once per co-run result): @raise Failure naming [what] when a
    serving cell did not complete every request that arrived (a fiber
    blocked forever). *)

val run : setup -> result
(** Simulate the cell; the engine cuts it off after 3600 s of simulated
    time.  @raise Failure naming the workload and variant if a process
    crashed ({!check_crashes}) or an OS invariant does not hold after the
    run ({!check_invariants}). *)

val ledger_reconciliation : result -> (string * int * int) list
(** The page-lifecycle ledger's totals beside the VM's own counters for
    the same facts, as [(counter, ledger, vm)] rows: hard, soft and
    validation faults, zero fills, rescues, prefetches issued and dropped,
    releases freed and skipped.  On a cell that ran with the ledger on,
    the two columns agree row by row.

    Precondition: the cell ran without a co-runner (no interactive task,
    no server).  The ledger counts every process's pages, but
    [r_app_stats] counts only the hog's, so beside a co-runner the rows
    legitimately differ. *)

(** Execution of compiled (PIR) programs as simulated processes.

    [create] builds the process: an address space with one segment per
    program array (sized under the given runtime parameter values), the
    PagingDirected policy module attached, and a run-time layer in the
    requested release policy.  It then compiles the program once into
    closures over an [int array] of the program's slots
    ({!Memhog_compiler.Pir.prog}[.px_slots]), with segments, indirect
    streams and per-site page callbacks resolved up front.  [run] executes
    them against the VM: touches become page references (faulting as
    needed), compute chunks occupy a CPU, and prefetch/release directives
    flow through the run-time layer's filters and helper threads.

    Indirect references draw from deterministic per-site random streams
    seeded from [seed] and the site's stable id, so the O/P/R/B variants of
    a program see identical index sequences. *)

type t

val create :
  ?seed:int ->
  ?runtime_policy:Memhog_runtime.Runtime.policy ->
  ?release_target:int ->
  ?governor:Memhog_runtime.Runtime.governor_cfg ->
  os:Memhog_vm.Os.t ->
  params:(string * int) list ->
  Memhog_compiler.Pir.prog ->
  t
(** The runtime policy only matters for [V_release] programs: Aggressive
    gives the paper's R bars, Buffered the B bars.  [governor] enables the
    run-time layer's graceful-degradation governor (see
    {!Memhog_runtime.Runtime.governor_cfg}).

    @raise Invalid_argument naming every variable the program reads that no
    loop, call or entry of [params] binds (e.g. a loop bound over a
    parameter [params] omits), before anything is mapped. *)

val asp : t -> Memhog_vm.Address_space.t
val runtime : t -> Memhog_runtime.Runtime.t

val run : t -> iterations:int -> unit
(** Run the whole program [iterations] times.  Must be called from inside a
    simulated process. *)

val exec_main : t -> unit
(** One pass over the program's main computation (starts the run-time
    layer's helper threads on first use). *)

val finish : t -> unit
(** Flush the run-time layer's buffered releases (application exit). *)

val spawn : t -> iterations:int -> on_done:(unit -> unit) -> Memhog_sim.Engine.proc
(** Convenience: spawn a process named after the program that [run]s it and
    then calls [on_done]. *)

val touched_pages : t -> int
(** Total page touches executed (for tests). *)

(** The simulated interactive task of section 1.1.

    A process repeatedly touches a 1 MB data set, spending 50 us of
    compute on each page, then sleeps for a fixed time.  The time to touch
    the entire data set is the "response time"; varying the sleep time
    controls how often each page is referenced — long sleeps leave the
    task defenseless against a global replacement policy.  Per-sweep
    hard-fault counts give Figure 10(c). *)

type sweep = {
  sw_index : int;
  sw_response : Memhog_sim.Time_ns.t;
  sw_hard_faults : int;
  sw_soft_faults : int;
}

type t

val create : os:Memhog_vm.Os.t -> sleep:Memhog_sim.Time_ns.t -> unit -> t

val spawn : t -> Memhog_sim.Engine.proc
(** Start the task; it sweeps and sleeps until the simulation stops. *)

val asp : t -> Memhog_vm.Address_space.t
val sweeps : t -> sweep list
(** Completed sweeps, oldest first. *)

val avg_response : t -> Memhog_sim.Time_ns.t option
(** Mean response over completed sweeps, skipping the first (warm-up)
    sweep, which absorbs the initial demand paging. *)

val avg_hard_faults : t -> float option
(** Mean hard faults per sweep, skipping the warm-up sweep. *)

val response_histogram : t -> Memhog_sim.Histogram.t
(** Per-sweep response times as a histogram, skipping the warm-up sweep
    (matching {!avg_response}); feeds the derived metrics layer's
    p50/p90/p99 response percentiles. *)

val account : t -> Memhog_sim.Account.t option
(** The task's per-category time account, once {!spawn} has run. *)

val alone_response : t -> Memhog_sim.Time_ns.t
(** The ideal warm response time: pure compute, no faults.  With the
    machine to itself the task's warm sweeps take no faults, so its
    {!avg_response} is exactly this, at any sleep. *)

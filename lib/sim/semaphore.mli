(** Counting semaphore with FIFO handoff, for modelling contended resources
    (memory-system locks, address-space locks, CPUs, disk arms).

    Waiting time is charged to the acquiring process's account, by default as
    {!Account.Resource_stall}; this is how "stalled for unavailable
    resources" in Figure 7 is measured.  Handoff is direct: a release passes
    ownership to the longest-waiting process, so later arrivals can never
    barge ahead.  Waiters block on an {!Engine.queue}, so a contended
    hand-off allocates only the blocked acquirer's continuation. *)

type t

val create : ?name:string -> int -> t
(** [create n] makes a semaphore with [n] units.  Requires [n >= 1]. *)

val name : t -> string
val capacity : t -> int
val available : t -> int
val waiting : t -> int

val acquire : ?cat:Account.category -> t -> unit
val release : t -> unit

val total_wait : t -> Time_ns.t
(** Cumulative time processes spent blocked on this semaphore. *)

val contended_acquisitions : t -> int

(** Per-process simulated-time accounting.

    Every simulated process carries an account that splits its lifetime into
    the categories Figure 7 of the paper reports: time executing user code,
    time in the kernel (page-fault handling), stall time waiting for I/O,
    stall time waiting for unavailable resources (memory, memory-system
    locks, CPUs), plus voluntary sleep (used by the interactive task). *)

type category =
  | User           (** executing application code *)
  | System         (** kernel time: fault handling, paging directives *)
  | Io_stall       (** blocked on disk I/O *)
  | Resource_stall (** blocked on memory, locks, or CPUs *)
  | Sleep          (** voluntary sleep *)

type t

val create : unit -> t
val add : t -> category -> Time_ns.t -> unit
val get : t -> category -> Time_ns.t

val add_to : t -> t -> unit
(** [add_to dst src] merges [src]'s buckets into [dst] (category-wise sum).
    Matrix-level aggregation uses this instead of summing fields by hand. *)

val total : t -> Time_ns.t
val busy_total : t -> Time_ns.t
(** Everything except [Sleep]: the execution-time breakdown of Figure 7. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit

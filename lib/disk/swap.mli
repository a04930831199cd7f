(** Striped swap volume.

    The paper's testbed stripes raw swap across ten Cheetah disks attached
    to five SCSI adapters.  Pages are striped round-robin: page [p] lives on
    disk [p mod n] at per-disk block [p / n], so a sequential page run is
    spread across all arms and can be fetched in parallel — the property
    that makes aggressive prefetching profitable. *)

open Memhog_sim

type config = {
  num_disks : int;
  disks_per_controller : int;
  disk_params : Disk.params;
}

val default_config : config
(** 10 disks, 2 per controller, Cheetah 4LP parameters — Table 1. *)

type t

val create :
  ?config:config ->
  ?chaos:Memhog_sim.Chaos.t ->
  ?obs:Memhog_sim.Obs.t ->
  page_bytes:int ->
  unit ->
  t
(** [chaos] and [obs] are handed to every striped disk (see
    {!Disk.create}); all disks share one fault plan and one observation
    bus. *)

val num_disks : t -> int

val read_page :
  ?cat:Memhog_sim.Account.category -> ?background:bool -> t -> page:int -> unit
(** Fetch one page from swap, blocking the caller for the full I/O.
    [background] requests queue behind demand requests on the owning disk's
    arm ({!Disk.read}): pass it for prefetches. *)

val write_page :
  ?cat:Memhog_sim.Account.category -> ?background:bool -> t -> page:int -> unit

val read :
  t -> cat:Memhog_sim.Account.category -> background:bool -> page:int -> unit
(** {!read_page} with every argument given, so the caller boxes no optional
    argument: the VM's and the tier router's path for each swap read. *)

val write :
  t -> cat:Memhog_sim.Account.category -> background:bool -> page:int -> unit
(** {!write_page} with every argument given. *)

(** {1 Statistics} *)

val page_reads : t -> int
val page_writes : t -> int
val disks : t -> Disk.t array
val total_busy_time : t -> Time_ns.t

val queue_depth : t -> int
(** Requests waiting at (or occupying) any stripe's arm right now —
    a point-in-time gauge for the telemetry scraper. *)

val total_timeouts : t -> int
(** Deadline timeouts summed across the stripes. *)

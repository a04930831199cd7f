type freer = Daemon | Releaser

type proc = {
  mutable hard_faults : int;
  mutable soft_faults : int;
  mutable soft_faults_daemon : int;
  mutable validation_faults : int;
  mutable zero_fills : int;
  mutable rescued_daemon : int;
  mutable rescued_releaser : int;
  mutable lost_daemon : int;
  mutable lost_releaser : int;
  mutable freed_by_daemon : int;
  mutable freed_by_releaser : int;
  mutable releases_requested : int;
  mutable releases_skipped : int;
  mutable prefetches_issued : int;
  mutable prefetches_dropped : int;
  mutable prefetches_useless : int;
  mutable prefetch_rescues : int;
  mutable writebacks : int;
  mutable invalidations : int;
}

let create_proc () =
  {
    hard_faults = 0;
    soft_faults = 0;
    soft_faults_daemon = 0;
    validation_faults = 0;
    zero_fills = 0;
    rescued_daemon = 0;
    rescued_releaser = 0;
    lost_daemon = 0;
    lost_releaser = 0;
    freed_by_daemon = 0;
    freed_by_releaser = 0;
    releases_requested = 0;
    releases_skipped = 0;
    prefetches_issued = 0;
    prefetches_dropped = 0;
    prefetches_useless = 0;
    prefetch_rescues = 0;
    writebacks = 0;
    invalidations = 0;
  }

let add_proc dst src =
  dst.hard_faults <- dst.hard_faults + src.hard_faults;
  dst.soft_faults <- dst.soft_faults + src.soft_faults;
  dst.soft_faults_daemon <- dst.soft_faults_daemon + src.soft_faults_daemon;
  dst.validation_faults <- dst.validation_faults + src.validation_faults;
  dst.zero_fills <- dst.zero_fills + src.zero_fills;
  dst.rescued_daemon <- dst.rescued_daemon + src.rescued_daemon;
  dst.rescued_releaser <- dst.rescued_releaser + src.rescued_releaser;
  dst.lost_daemon <- dst.lost_daemon + src.lost_daemon;
  dst.lost_releaser <- dst.lost_releaser + src.lost_releaser;
  dst.freed_by_daemon <- dst.freed_by_daemon + src.freed_by_daemon;
  dst.freed_by_releaser <- dst.freed_by_releaser + src.freed_by_releaser;
  dst.releases_requested <- dst.releases_requested + src.releases_requested;
  dst.releases_skipped <- dst.releases_skipped + src.releases_skipped;
  dst.prefetches_issued <- dst.prefetches_issued + src.prefetches_issued;
  dst.prefetches_dropped <- dst.prefetches_dropped + src.prefetches_dropped;
  dst.prefetches_useless <- dst.prefetches_useless + src.prefetches_useless;
  dst.prefetch_rescues <- dst.prefetch_rescues + src.prefetch_rescues;
  dst.writebacks <- dst.writebacks + src.writebacks;
  dst.invalidations <- dst.invalidations + src.invalidations

type global = {
  mutable daemon_activations : int;
  mutable daemon_pages_stolen : int;
  mutable daemon_frames_scanned : int;
  mutable daemon_invalidations : int;
  mutable releaser_batches : int;
  mutable releaser_pages_freed : int;
  mutable allocations : int;
  mutable allocation_waits : int;
}

let create_global () =
  {
    daemon_activations = 0;
    daemon_pages_stolen = 0;
    daemon_frames_scanned = 0;
    daemon_invalidations = 0;
    releaser_batches = 0;
    releaser_pages_freed = 0;
    allocations = 0;
    allocation_waits = 0;
  }

let add_global dst src =
  dst.daemon_activations <- dst.daemon_activations + src.daemon_activations;
  dst.daemon_pages_stolen <- dst.daemon_pages_stolen + src.daemon_pages_stolen;
  dst.daemon_frames_scanned <-
    dst.daemon_frames_scanned + src.daemon_frames_scanned;
  dst.daemon_invalidations <-
    dst.daemon_invalidations + src.daemon_invalidations;
  dst.releaser_batches <- dst.releaser_batches + src.releaser_batches;
  dst.releaser_pages_freed <- dst.releaser_pages_freed + src.releaser_pages_freed;
  dst.allocations <- dst.allocations + src.allocations;
  dst.allocation_waits <- dst.allocation_waits + src.allocation_waits

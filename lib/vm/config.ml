open Memhog_sim

type t = {
  page_bytes : int;
  total_frames : int;
  num_cpus : int;
  min_freemem : int;
  desfree : int;
  maxrss : int;
  clock_ages_to_steal : int;
  hw_ref_bits : bool;
  rescue_from_free_list : bool;
  drop_prefetch_when_low : bool;
  prefetch_fills_tlb : bool;
  tlb_entries : int;
  soft_fault_ns : Time_ns.t;
  validation_fault_ns : Time_ns.t;
  hard_fault_cpu_ns : Time_ns.t;
  rescue_ns : Time_ns.t;
  zero_fill_ns : Time_ns.t;
  pm_call_ns : Time_ns.t;
  tlb_refill_ns : Time_ns.t;
  daemon_page_scan_ns : Time_ns.t;
  releaser_page_ns : Time_ns.t;
  daemon_batch : int;
  releaser_batch : int;
  daemon_interval_ns : Time_ns.t;
}

let default =
  {
    page_bytes = 16 * 1024;
    total_frames = 4800 (* 75 MB of 16 KB pages *);
    num_cpus = 4;
    min_freemem = 32;
    desfree = 192;
    maxrss = max_int;
    clock_ages_to_steal = 1;
    hw_ref_bits = false;
    rescue_from_free_list = true;
    drop_prefetch_when_low = true;
    prefetch_fills_tlb = false;
    tlb_entries = 64;
    soft_fault_ns = Time_ns.us 25;
    validation_fault_ns = Time_ns.us 4;
    hard_fault_cpu_ns = Time_ns.us 40;
    rescue_ns = Time_ns.us 8;
    zero_fill_ns = Time_ns.us 25;
    pm_call_ns = Time_ns.us 3;
    tlb_refill_ns = Time_ns.ns 700;
    daemon_page_scan_ns = Time_ns.us 20;
    releaser_page_ns = Time_ns.ns 250;
    daemon_batch = 64;
    releaser_batch = 32;
    daemon_interval_ns = Time_ns.ms 1;
  }

let scaled ?(factor = 4) cfg =
  if factor < 1 then invalid_arg "Config.scaled: factor must be >= 1";
  {
    cfg with
    total_frames = cfg.total_frames / factor;
    (* keep enough free-list headroom for the prefetch pipeline even on
       small machines *)
    min_freemem = Int.max 16 (cfg.min_freemem / factor);
    desfree = Int.max 96 (cfg.desfree / factor);
    maxrss = (if cfg.maxrss = max_int then max_int else cfg.maxrss / factor);
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>page size: %d KB@,user memory: %d MB (%d frames)@,cpus: %d@,\
     min_freemem/desfree: %d/%d pages@,maxrss: %s@,ref bits: %s@]"
    (t.page_bytes / 1024)
    (t.total_frames * t.page_bytes / (1024 * 1024))
    t.total_frames t.num_cpus t.min_freemem t.desfree
    (if t.maxrss = max_int then "unlimited" else string_of_int t.maxrss)
    (if t.hw_ref_bits then "hardware" else "software (simulated by invalidation)")

open Memhog_sim

type t = {
  page_bytes : int;
  total_frames : int;
  min_freemem : int;
  desfree : int;
  maxrss : int;
  hw_ref_bits : bool;
  rescue_from_free_list : bool;
  drop_prefetch_when_low : bool;
  prefetch_fills_tlb : bool;
  daemon_batch : int;
  daemon_interval_ns : Time_ns.t;
}

let num_cpus = 4
let clock_ages_to_steal = 1
let tlb_entries = 64
let soft_fault_ns = Time_ns.us 25
let validation_fault_ns = Time_ns.us 4
let hard_fault_cpu_ns = Time_ns.us 40
let rescue_ns = Time_ns.us 8
let zero_fill_ns = Time_ns.us 25
let pm_call_ns = Time_ns.us 3
let tlb_refill_ns = Time_ns.ns 700
let daemon_page_scan_ns = Time_ns.us 20
let releaser_page_ns = Time_ns.ns 250
let releaser_batch = 32

let default =
  {
    page_bytes = 16 * 1024;
    total_frames = 4800 (* 75 MB of 16 KB pages *);
    min_freemem = 32;
    desfree = 192;
    maxrss = max_int;
    hw_ref_bits = false;
    rescue_from_free_list = true;
    drop_prefetch_when_low = true;
    prefetch_fills_tlb = false;
    daemon_batch = 64;
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
    t.total_frames num_cpus t.min_freemem t.desfree
    (if t.maxrss = max_int then "unlimited" else string_of_int t.maxrss)
    (if t.hw_ref_bits then "hardware" else "software (simulated by invalidation)")

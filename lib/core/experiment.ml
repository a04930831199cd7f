open Memhog_sim
module Os = Memhog_vm.Os
module Vm_stats = Memhog_vm.Vm_stats
module Pir = Memhog_compiler.Pir
module Compile = Memhog_compiler.Compile
module Runtime = Memhog_runtime.Runtime
module App = Memhog_exec.App
module Interactive = Memhog_exec.Interactive
module Server = Memhog_exec.Server
module Workload = Memhog_workloads.Workload
module Kvserve = Memhog_workloads.Kvserve

type variant = O | P | R | B

let variant_name = function O -> "O" | P -> "P" | R -> "R" | B -> "B"
let all_variants = [ O; P; R; B ]

let pir_variant = function
  | O -> Pir.V_original
  | P -> Pir.V_prefetch
  | R | B -> Pir.V_release

let runtime_policy = function
  | B -> Runtime.Buffered
  | O | P | R -> Runtime.Aggressive

type breakdown = {
  b_user : Time_ns.t;
  b_system : Time_ns.t;
  b_io_stall : Time_ns.t;
  b_resource_stall : Time_ns.t;
}

type interactive_summary = {
  is_avg_response : Time_ns.t option;
  is_avg_hard_faults : float option;
  is_alone_response : Time_ns.t;
  is_breakdown : breakdown;
  is_response_hist : Histogram.t;
}

let breakdown_total b = b.b_user + b.b_system + b.b_io_stall + b.b_resource_stall

let breakdown_of_account acct =
  {
    b_user = Account.get acct Account.User;
    b_system = Account.get acct Account.System;
    b_io_stall = Account.get acct Account.Io_stall;
    b_resource_stall = Account.get acct Account.Resource_stall;
  }

type result = {
  r_workload : string;
  r_variant : variant;
  r_elapsed : Time_ns.t;
  r_iterations : int;
  r_breakdown : breakdown;
  r_account : Account.t;
  r_app_stats : Vm_stats.proc;
  r_global : Vm_stats.global;
  r_runtime : Runtime.stats option;
  r_interactive : interactive_summary option;
  r_app_tlb_misses : int;
  r_telemetry : Telemetry.t;
  r_swap_reads : int;
  r_swap_writes : int;
  r_disk_busy : Time_ns.t;
  r_invariants_ok : bool;
  r_trace : Trace.t;
  r_fault_hist : Histogram.t;
  r_prefetch_hist : Histogram.t;
  r_chaos : Chaos.stats option;
  r_disk_timeouts : int;
  r_disk_bypasses : int;
  r_tiers : Memhog_vm.Tiers.summary option;
  r_ledger : Ledger.summary;
  r_sites : Pir.site_info list;
  r_events_executed : int;
  r_serving : Server.summary option;
  r_reqtrace : Reqtrace.t;
}

type setup = {
  machine : Machine.t;
  workload : Workload.t;
  variant : variant;
  interactive_sleep : Time_ns.t option;
  iterations : int option;
  conservative : bool;
  reactive : bool;
  release_target : int option;
  trace : Trace.t option;
  chaos : string option;
  governor : Runtime.governor_cfg option;
  ledger_on : bool;
  serve : Server.cfg option;
  tiers : string option;
  telemetry : bool;
}

(* Machine-relative serving cell: the keyspace shapes come from
   {!Kvserve.sizing}.  The traffic knobs default to a 20-second arrival
   window and a 30 ms SLO — far above a warm response (two resident
   touches and the server's 200 us of compute) and below a couple of hard
   faults' worth of stall, so attainment separates the variants. *)
let serve_cfg ?(slo = Time_ns.ms 30) ?(duration = Time_ns.sec 20) ~machine
    ?mark ~rate_rps () =
  let s =
    Kvserve.sizing
      ~mem_bytes:(Machine.mem_bytes machine)
      ~page_bytes:machine.Machine.m_config.Memhog_vm.Config.page_bytes
  in
  {
    Server.sv_nkeys = s.Kvserve.kv_nkeys;
    sv_theta = s.Kvserve.kv_theta;
    sv_index_bytes = s.Kvserve.kv_index_bytes;
    sv_values_bytes = s.Kvserve.kv_values_bytes;
    sv_rate_rps = rate_rps;
    sv_duration = duration;
    sv_slo = slo;
    sv_seed = machine.Machine.m_seed;
    sv_mark = mark;
  }

let setup ?(machine = Machine.paper) ?interactive_sleep ?iterations
    ?(conservative = false) ?(reactive = false) ?release_target ?trace ?chaos
    ?governor ?(ledger_on = true) ?serve ?tiers ?(telemetry = false) ~workload
    ~variant () =
  (* Validate eagerly so a bad number or spec fails before any work: out of
     range, each of these would run nothing or die mid-run. *)
  let reject fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Experiment.setup: " ^ m)) fmt
  in
  (match iterations with
  | Some n when n < 1 -> reject "iterations must be at least 1 (got %d)" n
  | _ -> ());
  (match interactive_sleep with
  | Some s when s < 0 -> reject "negative interactive sleep (%d ns)" s
  | _ -> ());
  (match serve with
  | Some { Server.sv_rate_rps = rate; sv_duration; sv_slo; _ } ->
      if not (Float.is_finite rate && rate > 0.0) then
        reject "offered rate must be positive (got %g rps)" rate;
      if sv_duration <= 0 then
        reject "arrival window must be positive (got %d ns)" sv_duration;
      if sv_slo <= 0 then reject "SLO must be positive (got %d ns)" sv_slo
  | None -> ());
  (match chaos with
  | Some spec -> ignore (Chaos.create ~seed:machine.Machine.m_seed spec)
  | None -> ());
  (match tiers with
  | Some spec -> ignore (Memhog_vm.Tiers.spec_of_string_exn spec)
  | None -> ());
  {
    machine;
    workload;
    variant;
    interactive_sleep;
    iterations;
    conservative;
    reactive;
    release_target;
    trace;
    chaos;
    governor;
    ledger_on;
    serve;
    tiers;
    telemetry;
  }

let summarize_interactive (task : Interactive.t) =
  {
    is_avg_response = Interactive.avg_response task;
    is_avg_hard_faults = Interactive.avg_hard_faults task;
    is_alone_response = Interactive.alone_response task;
    (* [run] spawns the task as it creates it *)
    is_breakdown = breakdown_of_account (Option.get (Interactive.account task));
    is_response_hist = Interactive.response_histogram task;
  }

(* A run that outlives this much simulated time is cut off by the engine. *)
let max_sim_time = Time_ns.sec 3600

let run_length sleep = Int.max (Time_ns.sec 45) ((8 * sleep) + Time_ns.sec 20)

let check_crashes ~what engine =
  match Engine.crashes engine with
  | [] -> ()
  | (name, e) :: _ ->
      failwith
        (Printf.sprintf "%s: process %s crashed: %s" what name
           (Printexc.to_string e))

let check_invariants ~what os =
  match List.find_opt (fun (_, ok) -> not ok) (Os.check_invariants os) with
  | Some (name, _) ->
      failwith
        (Printf.sprintf "%s: OS invariant %S violated after the run" what name)
  | None -> ()

let check_result ~what r =
  match r.r_serving with
  | Some sv when sv.Server.sm_completed <> sv.Server.sm_arrived ->
      failwith
        (Printf.sprintf "%s: the server completed %d of %d arrived requests"
           what sv.Server.sm_completed sv.Server.sm_arrived)
  | _ -> ()

let run (s : setup) =
  let m = s.machine in
  let engine = Engine.create ~max_time:max_sim_time () in
  (* Each run builds its own plan from (machine seed, spec): worker domains
     never share mutable chaos state, so the injected schedule — and the
     metrics — are identical at any --jobs level. *)
  let chaos =
    match s.chaos with
    | Some spec -> Chaos.create ~seed:m.Machine.m_seed spec
    | None -> Chaos.none
  in
  (* The lifecycle ledger is on by default: it is cheap (an int-array
     store per event it receives from the observation bus, no
     simulated-time interaction) and private to this cell, so its summary
     is byte-identical at any --jobs level.  The perf gate and perfbench's
     sinks-off runs turn it off ([ledger_on = false]); the ledger never
     interacts with the engine, so all deterministic work counters are
     unaffected either way. *)
  let ledger = if s.ledger_on then Ledger.create () else Ledger.null in
  (* The per-request blame layer exists only in serve mode: it is keyed by
     request lifecycles, which only the open-loop server drives.  Like the
     ledger it never touches the engine and is cell-private (its reservoir
     sampler draws from its own seeded stream), so blame output is
     byte-identical at any --jobs level. *)
  let reqtrace =
    match s.serve with
    | Some _ -> Reqtrace.create ~seed:m.Machine.m_seed ()
    | None -> Reqtrace.null
  in
  let obs = Obs.create ?trace:s.trace ~ledger ~reqtrace () in
  let os =
    Os.create ~swap_config:m.Machine.m_swap
      ?tiers:(Option.map Memhog_vm.Tiers.spec_of_string_exn s.tiers)
      ~obs ~chaos ~config:m.Machine.m_config ~engine ()
  in
  let trace = Obs.trace obs in
  let prog_ir, params =
    s.workload.Workload.w_make
      ~mem_bytes:(Machine.mem_bytes m)
      ~page_bytes:m.Machine.m_config.Memhog_vm.Config.page_bytes
  in
  let prog =
    Compile.compile
      ~target:(Machine.compiler_target m)
      ~conservative:s.conservative
      ~variant:(pir_variant s.variant)
      prog_ir
  in
  (* An active fault plan turns the degradation governor on (unless the
     setup pins its own configuration); healthy runs keep it off so their
     committed baselines stay untouched. *)
  let governor =
    match s.governor with
    | Some _ as g -> g
    | None -> if s.chaos <> None then Some Runtime.default_governor else None
  in
  let app =
    App.create ~seed:m.Machine.m_seed
      ~runtime_policy:
        (if s.reactive then Runtime.Reactive else runtime_policy s.variant)
      ?release_target:s.release_target ?governor ~os ~params prog
  in
  if s.reactive then
    Os.set_eviction_advisor os (App.asp app) (fun () ->
        Runtime.advise_evict (App.runtime app));
  let task =
    Option.map
      (fun sleep ->
        let t = Interactive.create ~os ~sleep () in
        ignore (Interactive.spawn t);
        t)
      s.interactive_sleep
  in
  (* In serve mode the hog co-runs as load, not as the thing being timed:
     the server's drained queue stops the engine, cutting the hog off
     mid-iteration. *)
  let server =
    Option.map
      (fun cfg ->
        let sv = Server.create ~os ~cfg () in
        ignore (Server.spawn sv ~on_done:(fun () -> Engine.stop ()));
        sv)
      s.serve
  in
  let iterations =
    Option.value s.iterations ~default:s.workload.Workload.w_iterations
  in
  let min_sim_time = Option.fold ~none:0 ~some:run_length s.interactive_sleep in
  (* Telemetry registry: the single sampling path.  Every probe is a
     closure read at scrape time; scraping never touches the engine, so
     the sampler fiber's event schedule — and every gated work counter —
     is identical whether the registry holds four series or twenty. *)
  let tl = Telemetry.create ~obs () in
  let app_asp = App.asp app in
  (* The legacy [--series] trio (plus the interactive task's RSS), under
     their historical names. *)
  Telemetry.register_gauge tl ~name:"free" ~help:"Free physical frames."
    (fun () -> float_of_int (Os.free_pages os));
  Telemetry.register_gauge tl ~name:"app-rss"
    ~help:"Out-of-core application resident set (pages)." (fun () ->
      float_of_int app_asp.Memhog_vm.Address_space.rss);
  Telemetry.register_gauge tl ~name:"app-limit"
    ~help:"Equation 1 upper limit the OS published for the app (pages)."
    (fun () -> float_of_int (Os.shared_upper_limit os app_asp));
  Option.iter
    (fun t ->
      let iasp = Interactive.asp t in
      Telemetry.register_gauge tl ~name:"inter-rss"
        ~help:"Interactive task resident set (pages)." (fun () ->
          float_of_int iasp.Memhog_vm.Address_space.rss))
    task;
  (* Ring losses are telemetry, not a buried field: every exporter
     (Chrome, CSV, OpenMetrics) reports this counter. *)
  Telemetry.register_counter tl ~name:"trace-dropped"
    ~help:"Events overwritten in the trace ring." (fun () ->
      float_of_int (Trace.dropped trace));
  if s.telemetry then begin
    (* Full registry: VM, disk, tiers, runtime and server probes, plus the
       default alert rules. *)
    Telemetry.register_counter tl ~name:"hard-faults"
      ~help:"Application demand reads from swap." (fun () ->
        float_of_int
          app_asp.Memhog_vm.Address_space.stats.Vm_stats.hard_faults);
    Telemetry.register_counter tl ~name:"refaults"
      ~help:"Too-early releases that hard-refaulted (ledger)." (fun () ->
        float_of_int (Ledger.refaults ledger));
    Telemetry.register_counter tl ~name:"early-rescues"
      ~help:"Too-early releases rescued from the free list (ledger)."
      (fun () -> float_of_int (Ledger.early_rescues ledger));
    let swap = Os.swap os in
    Telemetry.register_gauge tl ~name:"swap-queue"
      ~help:"Requests waiting at (or occupying) the swap stripes' arms."
      (fun () -> float_of_int (Memhog_disk.Swap.queue_depth swap));
    Telemetry.register_counter tl ~name:"swap-busy-ns"
      ~help:"Cumulative arm service time across the stripes (simulated ns)."
      (fun () -> float_of_int (Memhog_disk.Swap.total_busy_time swap));
    Telemetry.register_counter tl ~name:"swap-timeouts"
      ~help:"Swap requests that blew their per-request deadline." (fun () ->
        float_of_int (Memhog_disk.Swap.total_timeouts swap));
    Option.iter
      (fun tr ->
        let module Tiers = Memhog_vm.Tiers in
        Telemetry.register_gauge tl ~name:"breaker-state"
          ~help:"Far-tier circuit breaker (0 closed, 1 half-open, 2 open)."
          (fun () -> float_of_int (Tiers.breaker_state tr));
        Telemetry.register_counter tl ~name:"breaker-transitions"
          ~help:"Circuit-breaker state changes." (fun () ->
            float_of_int (Tiers.breaker_transitions tr));
        Telemetry.register_counter tl ~name:"tier-rescues"
          ~help:"Reads rescued from the durable swap copy." (fun () ->
            float_of_int (Tiers.rescues tr));
        Telemetry.register_counter tl ~name:"far-failovers"
          ~help:"Demotions failed over to local swap." (fun () ->
            float_of_int (Tiers.far_failovers tr)))
      (Os.tiers os);
    (if s.variant <> O then
       let rt = App.runtime app in
       Telemetry.register_gauge tl ~name:"release-buffer"
         ~help:"Pages held in the runtime's priority release buffer."
         (fun () -> float_of_int (Runtime.buffered_pages rt));
       Telemetry.register_gauge tl ~name:"gov-level"
         ~help:"Degradation-governor rung (0 configured policy, 2 off)."
         (fun () -> float_of_int (Runtime.governor_level rt));
       Telemetry.register_counter tl ~name:"gov-transitions"
         ~help:"Governor rung changes, both directions." (fun () ->
           let st = Runtime.stats rt in
           float_of_int (st.Runtime.rt_gov_degrades + st.Runtime.rt_gov_recoveries)));
    Option.iter
      (fun sv ->
        Telemetry.register_gauge tl ~name:"queue-depth"
          ~help:"Open-loop server arrival-queue backlog." (fun () ->
            float_of_int (Server.queue_depth sv));
        Telemetry.register_counter tl ~name:"arrivals"
          ~help:"Requests generated by the open-loop source." (fun () ->
            float_of_int (Server.arrived sv));
        Telemetry.register_counter tl ~name:"slo-recorded"
          ~help:"Responses recorded (completions past warm-up)." (fun () ->
            float_of_int (Server.recorded sv));
        Telemetry.register_counter tl ~name:"slo-missed"
          ~help:"Recorded responses over the SLO." (fun () ->
            float_of_int (Server.recorded sv - Server.slo_ok sv)))
      server;
    (* Default alert rules.  Windows count 100 ms scrapes. *)
    let frames =
      float_of_int m.Machine.m_config.Memhog_vm.Config.total_frames
    in
    Telemetry.add_rule tl ~name:"free_starvation" ~series:"free" ~window:5
      ~signal:Telemetry.Window_mean ~direction:Telemetry.Below
      ~fire:(frames /. 64.0) ~clear:(frames /. 32.0) ();
    Telemetry.add_rule tl ~name:"refault_storm" ~series:"refaults" ~window:10
      ~signal:Telemetry.Window_rate ~direction:Telemetry.Above ~fire:25.0
      ~clear:0.0 ();
    if Os.tiers os <> None then
      Telemetry.add_rule tl ~name:"breaker_flap" ~series:"breaker-transitions"
        ~window:20 ~signal:Telemetry.Window_rate ~direction:Telemetry.Above
        ~fire:2.0 ~clear:0.0 ();
    if s.variant <> O then
      Telemetry.add_rule tl ~name:"governor_oscillation"
        ~series:"gov-transitions" ~window:50 ~signal:Telemetry.Window_rate
        ~direction:Telemetry.Above ~fire:3.0 ~clear:0.0 ();
    if server <> None then begin
      Telemetry.add_rule tl ~name:"slo_fast_burn" ~series:"slo-missed"
        ~window:5
        ~signal:(Telemetry.Window_ratio "slo-recorded")
        ~direction:Telemetry.Above ~fire:0.5 ~clear:0.1 ();
      Telemetry.add_rule tl ~name:"slo_slow_burn" ~series:"slo-missed"
        ~window:30
        ~signal:(Telemetry.Window_ratio "slo-recorded")
        ~direction:Telemetry.Above ~fire:0.2 ~clear:0.05 ()
    end
  end;
  ignore
    (Engine.spawn engine ~name:"sampler" (fun () ->
         while true do
           Engine.delay ~cat:Account.Sleep (Time_ns.ms 100);
           let now = Engine.now () in
           Telemetry.scrape tl ~time:now;
           let app_rss = app_asp.Memhog_vm.Address_space.rss in
           if Obs.on obs then begin
             let pid = app_asp.Memhog_vm.Address_space.pid in
             Obs.emit obs ~time:now ~stream:pid
               (Trace.Rss_sample { owner = pid; pages = app_rss });
             Obs.emit obs ~time:now ~stream:pid
               (Trace.Upper_limit_sample
                  { owner = pid; pages = Os.shared_upper_limit os app_asp })
           end;
           (match server with
           | Some sv when Obs.on obs ->
               (* Request-queue backlog, on the server's stream: lines up
                  with the RSS counters so a trace viewer shows queue
                  build-up against the hog's residency. *)
               let pid = (Server.asp sv).Memhog_vm.Address_space.pid in
               Obs.emit obs ~time:now ~stream:pid
                 (Trace.Queue_depth { owner = pid; depth = Server.queue_depth sv })
           | _ -> ());
           match task with
           | Some t ->
               let iasp = Interactive.asp t in
               if Obs.on obs then
                 let pid = iasp.Memhog_vm.Address_space.pid in
                 Obs.emit obs ~time:now ~stream:pid
                   (Trace.Rss_sample
                      { owner = pid; pages = iasp.Memhog_vm.Address_space.rss })
           | None -> ()
         done));
  let elapsed = ref 0 in
  let iterations_done = ref 0 in
  let driver =
    Engine.spawn engine ~name:"app-driver" (fun () ->
        let start = Engine.now () in
        let count = ref 0 in
        (* run at least [iterations] passes, and keep going for the
           interactive task's [run_length] so it gets enough sweeps; in
           serve mode keep hogging until the server stops the engine *)
        while
          !count < iterations
          || Engine.now () - start < min_sim_time
          || s.serve <> None
        do
          App.exec_main app;
          incr count;
          iterations_done := !count;
          elapsed := Engine.now () - start
        done;
        App.finish app;
        iterations_done := !count;
        elapsed := Engine.now () - start;
        Engine.stop ())
  in
  Engine.run engine;
  let what =
    Printf.sprintf "experiment %s/%s" s.workload.Workload.w_name
      (variant_name s.variant)
  in
  check_crashes engine ~what;
  check_invariants ~what os;
  let asp = App.asp app in
  (* The application executed inside the driver process: its account holds
     the Figure 7 time components. *)
  let acct = Engine.account driver in
  let breakdown = breakdown_of_account acct in
  let swap = Os.swap os in
  {
    r_workload = s.workload.Workload.w_name;
    r_variant = s.variant;
    r_elapsed = !elapsed;
    r_iterations = max 1 !iterations_done;
    r_breakdown = breakdown;
    r_account = acct;
    r_app_stats = asp.Memhog_vm.Address_space.stats;
    r_global = Os.global_stats os;
    r_runtime =
      (match s.variant with
      | O -> None
      | _ -> Some (Runtime.stats (App.runtime app)));
    r_interactive = Option.map summarize_interactive task;
    r_app_tlb_misses = Memhog_vm.Tlb.misses asp.Memhog_vm.Address_space.tlb;
    r_telemetry = tl;
    r_swap_reads = Memhog_disk.Swap.page_reads swap;
    r_disk_busy = Memhog_disk.Swap.total_busy_time swap;
    r_swap_writes = Memhog_disk.Swap.page_writes swap;
    r_invariants_ok = true;
    r_trace = trace;
    r_fault_hist = Os.fault_histogram os;
    r_prefetch_hist = Os.prefetch_histogram os;
    r_chaos = (if s.chaos = None then None else Some (Chaos.stats chaos));
    r_disk_timeouts =
      Array.fold_left
        (fun acc d -> acc + Memhog_disk.Disk.timeouts d)
        0
        (Memhog_disk.Swap.disks swap);
    r_disk_bypasses =
      Array.fold_left
        (fun acc d -> acc + Memhog_disk.Disk.demand_bypasses d)
        0
        (Memhog_disk.Swap.disks swap);
    r_tiers = Option.map Memhog_vm.Tiers.summary (Os.tiers os);
    r_ledger = Ledger.summarize ledger;
    r_sites = Pir.sites prog;
    r_events_executed = Engine.events_executed engine;
    r_serving = Option.map Server.summary server;
    r_reqtrace = reqtrace;
  }

let ledger_reconciliation r =
  let l = r.r_ledger and s = r.r_app_stats in
  Vm_stats.
    [
      ("hard faults", l.Ledger.ls_hard_faults, s.hard_faults);
      ("soft faults", l.Ledger.ls_soft_faults, s.soft_faults);
      ("validation faults", l.Ledger.ls_validation_faults, s.validation_faults);
      ("zero fills", l.Ledger.ls_zero_fills, s.zero_fills);
      ("rescues", l.Ledger.ls_rescues, s.rescued_daemon + s.rescued_releaser);
      ("prefetches issued", l.Ledger.ls_prefetches_issued, s.prefetches_issued);
      ("prefetches dropped", l.Ledger.ls_prefetches_dropped, s.prefetches_dropped);
      ("releases freed", l.Ledger.ls_releases_freed, s.freed_by_releaser);
      ("releases skipped", l.Ledger.ls_releases_skipped, s.releases_skipped);
    ]

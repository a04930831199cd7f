(* memhog's benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The load is a closed loop with one caller on one domain: each workload
   run starts when the previous one returns.  (The serving workload's
   Poisson arrivals are open-loop in simulated time only, so there is no
   host-side generator lag.)  With --trace 0 it prints the end-to-end
   metrics, host times scaled to one host speed (see [untraced]); with
   --trace 1 the per-layer metrics, from phase spans around
   its own calls, sink on/off ablations and the layer drivers.  Every run
   is checked (see [Workloads.check]); the last stdout line is one JSON
   object, and the exit code is non-zero when any run failed. *)

open Memhog_perfbench
open Memhog_sim
module E = Memhog_core.Experiment
module Metrics = Memhog_core.Metrics
module Metrics_io = Memhog_core.Metrics_io
module VS = Memhog_vm.Vm_stats
module Server = Memhog_exec.Server
module Runtime = Memhog_runtime.Runtime
module Workload = Memhog_workloads.Workload
module Machine = Memhog_core.Machine
module W = Workloads
module D = Drivers

(* The traced run sets up this many times; the untraced run sets up in
   place of every [setup_every]th run, so its set-ups are spread across
   the run like its runs. *)
let traced_setups = 3
let setup_every = 4

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

type args = { workload : W.t; seed : int; seconds : float; trace : bool }

let usage =
  Printf.sprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1"
    (String.concat "|" W.names)

let parse argv =
  let ( let* ) = Result.bind in
  let rec pairs acc = function
    | [] -> Ok acc
    | (("--workload" | "--seed" | "--seconds" | "--trace") as k) :: v :: rest ->
        pairs ((k, v) :: acc) rest
    | x :: _ -> Error (Printf.sprintf "unexpected argument %S" x)
  in
  let* kvs = pairs [] (List.tl (Array.to_list argv)) in
  let get k =
    match List.assoc_opt k kvs with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing %s" k)
  in
  let* name = get "--workload" in
  let* workload =
    Option.to_result ~none:(Printf.sprintf "unknown workload %S" name)
      (W.find name)
  in
  let* seed = get "--seed" in
  let* seed =
    Option.to_result ~none:"--seed takes an integer" (int_of_string_opt seed)
  in
  let* seconds = get "--seconds" in
  let* seconds =
    match float_of_string_opt seconds with
    | Some s when s > 0.0 -> Ok s
    | _ -> Error "--seconds takes a positive number"
  in
  let* trace = get "--trace" in
  let* trace =
    match trace with
    | "0" -> Ok false
    | "1" -> Ok true
    | _ -> Error "--trace takes 0 or 1"
  in
  Ok { workload; seed; seconds; trace }

(* ------------------------------------------------------------------ *)
(* Checked runs                                                        *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  mutable reference : string option;
      (** the first digest of this process: every later run, whatever its
          sinks, must reproduce it *)
}

exception Crashed

type rep = {
  wall : float;  (** host s spent in [Experiment.run], summed over cells *)
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  closeout : float;  (** host s of metrics close-out; 0 when not traced *)
  events : int;
  results : E.result list;
}

let closeout results =
  ignore
    (Metrics_io.to_string
       (Metrics_io.metrics_json (Metrics.of_results ~label:"perfbench" results)))

let timed_run ~traced cells =
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let results = List.map E.run cells in
  let wall = Clock.since_s t0 in
  let g1 = Gc.quick_stat () in
  let c0 = Clock.now_ns () in
  if traced then closeout results;
  {
    wall;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    closeout = (if traced then Clock.since_s c0 else 0.0);
    events =
      List.fold_left (fun a r -> a + r.E.r_events_executed) 0 results;
    results;
  }

let fail tally note =
  tally.failed <- tally.failed + 1;
  tally.notes <- note :: tally.notes

(* One workload run, checked.  A crash aborts the whole invocation. *)
let attempt ?(traced = false) tally (w : W.t) ~seed ~sinks cells =
  tally.attempted <- tally.attempted + 1;
  match timed_run ~traced cells with
  | exception e ->
      fail tally ("crash: " ^ Printexc.to_string e);
      raise Crashed
  | rep ->
      let d = W.digest rep.results in
      let drift =
        match tally.reference with
        | None ->
            tally.reference <- Some d;
            []
        | Some r when r = d -> []
        | Some r ->
            [ Printf.sprintf "digest %s differs from this process's first %s" d r ]
      in
      let checks = Option.to_list (W.check w ~seed ~sinks rep.results) in
      (match checks @ drift with
      | [] -> ()
      | notes -> fail tally (String.concat "; " notes));
      rep

type setup_sample = { setup_s : float; compile_s : float; directives : int }

(* What a process does before its first timed run: Experiment.setup, the
   IR build and compile, and one untimed warm-up run. *)
let set_up tally (w : W.t) ~seed =
  let t0 = Clock.now_ns () in
  let cells = w.W.cells ~seed w.W.sinks in
  let c0 = Clock.now_ns () in
  let progs = List.map W.compile cells in
  let compile_s = Clock.since_s c0 in
  ignore (attempt tally w ~seed ~sinks:w.W.sinks cells);
  {
    setup_s = Clock.since_s t0;
    compile_s;
    directives = List.fold_left (fun a p -> a + W.directives p) 0 progs;
  }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* A run's results hold its whole simulated system (telemetry probes close
   over the OS), so only the first sample keeps them: retained results
   would grow the heap, and slow the GC, run after run. *)
let strip r = { r with results = [] }

(* Call [f] until [seconds] have passed, at least once; every result but
   the first goes through [forget]. *)
let for_seconds ~forget seconds f =
  let stop = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc =
    let x = f () in
    let acc = (match acc with [] -> x | _ -> forget x) :: acc in
    if Clock.now_ns () < stop then go acc else List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Metric values                                                       *)
(* ------------------------------------------------------------------ *)

type metric = {
  name : string;
  unit_ : string;
  samples : float list;  (** the value is their median *)
}

let m name unit_ samples = { name; unit_; samples }
let one name unit_ v = m name unit_ [ v ]
let count name v = one name "count" (float_of_int v)
let value mt = Stats.median mt.samples
let sum f results = List.fold_left (fun a r -> a + f r) 0 results
let sim_s ns = float_of_int ns /. 1e9

let serving results = List.find_map (fun r -> r.E.r_serving) results

let serve_ms results p =
  match serving results with
  | Some s -> float_of_int (Histogram.percentile s.Server.sm_hist p) /. 1e6
  | None -> 0.0

let slo_attainment results =
  match serving results with Some s -> Server.slo_attainment s | None -> 0.0

let failed_frac tally =
  float_of_int tally.failed /. float_of_int (max 1 tally.attempted)

(* [runs] and [setups] pair each sample with its host-speed scale (see
   [untraced]). *)
let end_to_end ~setups ~peak_mb runs =
  let results = (fst (List.hd runs)).results in
  let per_run f = List.map (fun (r, scale) -> f r scale) runs in
  [
    m "wall_s" "s" (per_run (fun r scale -> r.wall *. scale));
    m "events_per_s" "1/s"
      (per_run (fun r scale -> float_of_int r.events /. (r.wall *. scale)));
    m "minor_words_per_event" "words"
      (per_run (fun r _ -> r.minor_words /. float_of_int r.events));
    one "peak_heap_mb" "MB" peak_mb;
    m "setup_s" "s" (List.map (fun (s, scale) -> s.setup_s *. scale) setups);
    one "sim_s" "sim_s"
      (sim_s (sum (fun r -> Account.total r.E.r_account) results));
    count "hard_faults" (sum (fun r -> r.E.r_app_stats.VS.hard_faults) results);
  ]

(* Reported beside the end-to-end metrics but not gated by the caller:
   the unscaled host times and the calibrations that scaled them; zero on
   a correct run; or meaningful on the serving workload only. *)
let end_to_end_extra tally ~setups ~calibrations runs =
  let results = (fst (List.hd runs)).results in
  [
    m "host_wall_s" "s" (List.map (fun (r, _) -> r.wall) runs);
    m "host_setup_s" "s" (List.map (fun (s, _) -> s.setup_s) setups);
    m "calibration_s" "s" calibrations;
    one "failed_frac" "ratio" (failed_frac tally);
  ]
  @
  if serving results = None then []
  else
    [
      one "serve_p99_ms" "sim_ms" (serve_ms results 99.0);
      one "serve_p999_ms" "sim_ms" (serve_ms results 99.9);
      one "slo_attainment" "ratio" (slo_attainment results);
    ]

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

type sink = Ledger_sink | Trace_sink | Telemetry_sink

let sink_on (s : W.sinks) = function
  | Ledger_sink -> s.W.ledger
  | Trace_sink -> s.W.trace
  | Telemetry_sink -> s.W.telemetry

let flip (s : W.sinks) = function
  | Ledger_sink -> { s with W.ledger = not s.W.ledger }
  | Trace_sink -> { s with W.trace = not s.W.trace }
  | Telemetry_sink -> { s with W.telemetry = not s.W.telemetry }

let sinks = [ Ledger_sink; Trace_sink; Telemetry_sink ]

type round = { untraced : rep; traced : rep; flipped : (sink * rep) list }

let walls reps = List.map (fun r -> r.wall) reps

(* The interpreter driver runs each distinct program of the cells once. *)
let program_key (s : E.setup) =
  (s.E.workload.Workload.w_name, s.E.machine.Machine.m_name)

let per_layer tally (w : W.t) ~seed ~seconds ~setups =
  let rounds =
    for_seconds seconds
      ~forget:(fun r ->
        {
          untraced = strip r.untraced;
          traced = strip r.traced;
          flipped = List.map (fun (k, x) -> (k, strip x)) r.flipped;
        })
      (fun () ->
        let run ?traced sinks =
          attempt ?traced tally w ~seed ~sinks (w.W.cells ~seed sinks)
        in
        let untraced = run w.W.sinks in
        let traced = run ~traced:true w.W.sinks in
        let flipped = List.map (fun k -> (k, run (flip w.W.sinks k))) sinks in
        { untraced; traced; flipped })
  in
  let traced = List.map (fun r -> r.traced) rounds in
  let results = (List.hd traced).results in
  (* Counts a sink collects come from whichever run had it on. *)
  let with_sink k =
    if sink_on w.W.sinks k then results
    else (List.assoc k (List.hd rounds).flipped).results
  in
  (* Differences are paired within a round, whose runs are adjacent in
     time, so slow drift in the host's speed cancels; the metric is their
     median over rounds. *)
  let sink_cost k =
    List.map
      (fun r ->
        let base = (r.untraced.wall +. r.traced.wall) /. 2.0 in
        let other = (List.assoc k r.flipped).wall in
        if sink_on w.W.sinks k then base -. other else other -. base)
      rounds
  in
  (* Layer drivers. *)
  let eng = D.engine () in
  let sem = D.semaphore () in
  let cells = w.W.cells ~seed w.W.sinks in
  let interps =
    List.fold_left
      (fun acc s ->
        if List.mem_assoc (program_key s) acc then acc
        else (program_key s, D.interp s) :: acc)
      [] cells
  in
  let interp_cost = (snd (List.hd interps)).D.touch in
  let touches =
    List.fold_left2
      (fun a s r ->
        let ic = List.assoc (program_key s) interps in
        a + (ic.D.touches_per_pass * r.E.r_iterations))
      0 cells results
  in
  let vm = D.vm () in
  let rt = D.runtime () in
  let dk = D.disk () in
  let tr = D.tiers () in
  let emit = D.trace_emit () in
  let observe = D.ledger_observe () in
  let record = D.histogram_record () in
  let scrape = D.telemetry_scrape () in
  let clock = D.clock_overhead_ns () in
  let single (c : D.cost) = Float.max 0.0 (c.D.ns_per -. clock) in
  (* Simulated counts, summed over cells. *)
  let app f = sum (fun r -> f r.E.r_app_stats) results in
  let rts f =
    sum (fun r -> match r.E.r_runtime with Some s -> f s | None -> 0) results
  in
  let server f =
    match serving results with Some s -> f s | None -> 0
  in
  let trace_emitted =
    sum
      (fun r -> Trace.length r.E.r_trace + Trace.dropped r.E.r_trace)
      (with_sink Trace_sink)
  in
  let demand_faults = sum (fun r -> Histogram.count r.E.r_fault_hist) results in
  let prefetches_done =
    sum (fun r -> Histogram.count r.E.r_prefetch_hist) results
  in
  let series_scrapes =
    sum
      (fun r ->
        Telemetry.scrapes r.E.r_telemetry
        * List.length (Telemetry.series_names r.E.r_telemetry))
      results
  in
  let ratio num den =
    if den = 0 then 0.0 else float_of_int num /. float_of_int den
  in
  (* Prefetches issued to the OS: fetched, rescued, useless or dropped. *)
  let prefetch_useful =
    let wasted =
      app (fun s -> s.VS.prefetches_useless + s.VS.prefetches_dropped)
    in
    let issued =
      wasted + app (fun s -> s.VS.prefetches_issued + s.VS.prefetch_rescues)
    in
    if issued = 0 then 0.0 else 1.0 -. ratio wasted issued
  in
  let release_useful =
    let freed = app (fun s -> s.VS.freed_by_releaser) in
    if freed = 0 then 0.0
    else
      1.0
      -. ratio
           (app (fun s -> s.VS.rescued_releaser)
           + sum
               (fun r -> r.E.r_ledger.Ledger.ls_early_refaulted)
               (with_sink Ledger_sink))
           freed
  in
  let run_s = Stats.median (walls traced) in
  let engine_ns = eng.D.dispatch.D.ns_per in
  let self (c : D.cost) = c.D.ns_per -. (c.D.events_per *. engine_ns) in
  let w_sinks = w.W.sinks in
  let attributed_ns =
    List.fold_left ( +. ) 0.0
      [
        float_of_int (sum (fun r -> r.E.r_events_executed) results) *. engine_ns;
        float_of_int touches *. self interp_cost;
        float_of_int demand_faults *. self vm.D.hard;
        float_of_int (rts (fun s -> s.Runtime.rt_release_issued))
        *. self vm.D.release;
        float_of_int (rts (fun s -> s.Runtime.rt_release_requests)) *. self rt;
        float_of_int
          (max 0 (sum (fun r -> r.E.r_swap_reads) results - demand_faults))
        *. self dk;
        (if w_sinks.W.trace then float_of_int trace_emitted *. emit.D.ns_per
         else 0.0);
        (if w_sinks.W.ledger && w_sinks.W.trace then
           float_of_int trace_emitted *. observe.D.ns_per
         else 0.0);
        float_of_int (demand_faults + prefetches_done) *. record.D.ns_per;
        float_of_int series_scrapes *. single scrape /. 20.0;
      ]
  in
  let gc f = Stats.median (List.map f traced) in
  let events = float_of_int (List.hd traced).events in
  [
    count "engine.events" (sum (fun r -> r.E.r_events_executed) results);
    one "engine.ns_per_event" "ns" engine_ns;
    one "engine.words_per_event" "words" eng.D.dispatch.D.words_per;
    one "engine.sem_ns_per_acquire" "ns" sem.D.ns_per;
    one "engine.resource_stall_sim_s" "sim_s"
      (sim_s (sum (fun r -> r.E.r_breakdown.E.b_resource_stall) results));
    count "interp.touches" touches;
    one "interp.ns_per_touch" "ns" interp_cost.D.ns_per;
    one "interp.words_per_touch" "words" interp_cost.D.words_per;
    m "compiler.compile_s" "s" (List.map (fun s -> s.compile_s) setups);
    count "compiler.directives" (List.hd setups).directives;
    count "vm.hard_faults" (app (fun s -> s.VS.hard_faults));
    count "vm.soft_faults" (app (fun s -> s.VS.soft_faults));
    count "vm.validations" (app (fun s -> s.VS.validation_faults));
    count "vm.daemon_steals"
      (sum (fun r -> r.E.r_global.VS.daemon_pages_stolen) results);
    count "vm.allocation_waits"
      (sum (fun r -> r.E.r_global.VS.allocation_waits) results);
    one "vm.ns_per_hard_fault" "ns" vm.D.hard.D.ns_per;
    one "vm.ns_per_fast_touch" "ns" (single vm.D.fast);
    one "vm.ns_per_release" "ns" vm.D.release.D.ns_per;
    count "runtime.release_requests" (rts (fun s -> s.Runtime.rt_release_requests));
    count "runtime.release_issued" (rts (fun s -> s.Runtime.rt_release_issued));
    count "runtime.prefetch_requests"
      (rts (fun s -> s.Runtime.rt_prefetch_requests));
    one "runtime.prefetch_useful_ratio" "ratio" prefetch_useful;
    one "runtime.release_useful_ratio" "ratio" release_useful;
    one "runtime.ns_per_release_page" "ns" rt.D.ns_per;
    count "disk.reads" (sum (fun r -> r.E.r_swap_reads) results);
    count "disk.writes" (sum (fun r -> r.E.r_swap_writes) results);
    one "disk.busy_sim_s" "sim_s" (sim_s (sum (fun r -> r.E.r_disk_busy) results));
    count "disk.demand_bypasses" (sum (fun r -> r.E.r_disk_bypasses) results);
    count "disk.timeouts" (sum (fun r -> r.E.r_disk_timeouts) results);
    one "disk.ns_per_read" "ns" dk.D.ns_per;
    one "tiers.ns_per_read" "ns" tr.D.ns_per;
    count "server.arrived" (server (fun s -> s.Server.sm_arrived));
    count "server.completed" (server (fun s -> s.Server.sm_completed));
    count "server.queue_max" (server (fun s -> s.Server.sm_max_queue));
    one "server.p99_sim_ms" "sim_ms" (serve_ms results 99.0);
    one "server.p999_sim_ms" "sim_ms" (serve_ms results 99.9);
    one "server.slo_attainment" "ratio" (slo_attainment results);
    m "obs.ledger_s" "s" (sink_cost Ledger_sink);
    m "obs.trace_s" "s" (sink_cost Trace_sink);
    m "obs.telemetry_s" "s" (sink_cost Telemetry_sink);
    count "obs.trace_events" trace_emitted;
    count "obs.trace_dropped"
      (sum (fun r -> Trace.dropped r.E.r_trace) (with_sink Trace_sink));
    one "obs.trace_ns_per_emit" "ns" emit.D.ns_per;
    one "obs.ledger_ns_per_observe" "ns" observe.D.ns_per;
    one "obs.histogram_ns_per_record" "ns" record.D.ns_per;
    one "obs.telemetry_ns_per_scrape" "ns" (single scrape);
    m "harness.run_s" "s" (walls traced);
    m "harness.closeout_s" "s" (List.map (fun r -> r.closeout) traced);
    one "gc.minor_collections" "count" (gc (fun r -> float_of_int r.minor_gcs));
    one "gc.major_collections" "count" (gc (fun r -> float_of_int r.major_gcs));
    one "gc.promoted_words_per_event" "words"
      (gc (fun r -> r.promoted_words) /. events);
    one "unattributed_share" "ratio" (1.0 -. (attributed_ns /. (run_s *. 1e9)));
    m "trace_overhead" "ratio"
      (List.map (fun r -> (r.traced.wall /. r.untraced.wall) -. 1.0) rounds);
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_table title metrics =
  Printf.printf "%s\n" title;
  Printf.printf "  %-30s %-7s %16s %16s %16s %8s %4s\n" "metric" "unit"
    "median" "q1" "q3" "spread" "n";
  List.iter
    (fun mt ->
      let q1, med, q3 = Stats.quartiles mt.samples in
      Printf.printf "  %-30s %-7s %16.6g %16.6g %16.6g %7.2f%% %4d\n" mt.name
        mt.unit_ med q1 q3
        (100.0 *. Stats.spread mt.samples)
        (List.length mt.samples))
    metrics

let print_result tally metrics =
  let body =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name
             (json_number (value mt)) mt.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0) tally.attempted tally.failed body

type sample = Run of rep | Setup of setup_sample

(* The untraced run.  The host's speed drifts by more than the bounds for
   minutes at a time (see [Calib]), so every sample is followed by a
   [Calib.measure], and its host time is scaled by [Calib.reference_s]
   over the mean of the calibrations on either side of it.  The first,
   cold set-up runs before any calibration, so the top heap read after it
   is the workload's alone. *)
let untraced tally (w : W.t) ~seed ~seconds =
  let first = set_up tally w ~seed in
  let peak_mb = top_heap_mb () in
  let c0 = Calib.measure () in
  let calibrations = ref [ c0 ] in
  let scaled x =
    let c = Calib.measure () in
    let before = List.hd !calibrations in
    let scale = Calib.reference_s /. ((before +. c) /. 2.0) in
    calibrations := c :: !calibrations;
    (x, scale)
  in
  let k = ref 0 in
  let samples =
    for_seconds seconds
      ~forget:(function Run r, s -> (Run (strip r), s) | x -> x)
      (fun () ->
        incr k;
        scaled
          (if !k mod setup_every = 0 then Setup (set_up tally w ~seed)
           else
             Run
               (attempt tally w ~seed ~sinks:w.W.sinks
                  (w.W.cells ~seed w.W.sinks))))
  in
  let runs =
    List.filter_map (function Run r, s -> Some (r, s) | _ -> None) samples
  in
  let setups =
    (first, Calib.reference_s /. c0)
    :: List.filter_map (function Setup u, s -> Some (u, s) | _ -> None) samples
  in
  let ms = end_to_end ~setups ~peak_mb runs in
  Printf.printf "%d set-ups, %d timed runs, %d calibrations\n"
    (List.length setups) (List.length runs) (List.length !calibrations);
  print_table "end-to-end metrics (untraced run; host times scaled)"
    (ms @ end_to_end_extra tally ~setups ~calibrations:!calibrations runs);
  ms

let main args =
  let w = args.workload in
  let tally = { attempted = 0; failed = 0; notes = []; reference = None } in
  Printf.printf
    "perfbench: workload %s, seed %d, %g s, trace %d\n\
     load: closed loop, one caller on one domain; each run starts when the \
     previous one returns\n\
     %!"
    w.W.name args.seed args.seconds
    (if args.trace then 1 else 0);
  let metrics =
    try
      if args.trace then begin
        let setups =
          List.init traced_setups (fun _ -> set_up tally w ~seed:args.seed)
        in
        let ms = per_layer tally w ~seed:args.seed ~seconds:args.seconds ~setups in
        print_table "per-layer metrics (traced run)" ms;
        ms
      end
      else untraced tally w ~seed:args.seed ~seconds:args.seconds
    with Crashed -> []
  in
  List.iter (Printf.printf "FAILED: %s\n") (List.rev tally.notes);
  print_result tally metrics;
  if tally.failed > 0 then exit 1

let () =
  match parse Sys.argv with
  | Ok args -> main args
  | Error msg ->
      prerr_endline (msg ^ "\n" ^ usage);
      exit 2

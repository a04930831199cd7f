(* The tolerance-0 gate registry: one entry per committed baseline in
   bench/.  Each entry names the cells it simulates on the quick machine
   and reads its outcome back from the runner's lookup: the physics it
   exists to hold, then the canonical document the baseline freezes.  The
   runner checks every co-run cell's OS invariants and request
   conservation before any entry reads it. *)

open Memhog_sim
module E = Experiment
module Runtime = Memhog_runtime.Runtime
module Server = Memhog_exec.Server

type outcome = { doc : Metrics_io.json; artifacts : (string * string) list }

type entry = {
  name : string;
  baseline : string;
  cells : Figures.cell list;
  read : Figures.lookup -> outcome;
}

let machine = Machine.quick

let require gate cond msg =
  if not cond then failwith (Printf.sprintf "%s: %s" gate msg)

let metrics ~label results =
  Metrics_io.metrics_json (Metrics.of_results ~label results)

(* ------------------------------------------------------------------ *)
(* smoke: the Figure 7 matrix cut down to MATVEC                       *)
(* ------------------------------------------------------------------ *)

let smoke =
  let cells, read = Figures.matrix ~machine ~workloads:[ "MATVEC" ] () in
  let read l =
    let doc = Metrics_io.metrics_json (Metrics.of_matrix (read l)) in
    { doc; artifacts = [] }
  in
  { name = "smoke"; baseline = "BENCH_metrics.json"; cells; read }

(* ------------------------------------------------------------------ *)
(* chaos: canned fault plans and the degradation governor              *)
(* ------------------------------------------------------------------ *)

(* Tighter ladder than the production default: the canned plans are short
   (seconds of simulated time), so windows close faster and a single bad
   window is enough to step down. *)
let chaos_governor =
  {
    Runtime.gv_window_ns = Time_ns.ms 100;
    gv_min_samples = 4;
    gv_bad_rate = 0.3;
    gv_degrade_after = 1;
    gv_recover_after = 3;
  }

(* The brown-out must drive the governor all the way to demand paging
   (level 2) and back — both directions visible as trace events. *)
let check_brown_out gate (r : E.result) (cs : Chaos.stats) =
  let reached_2 = ref false and recovered = ref false in
  Trace.iter r.E.r_trace (fun ~time:_ ~stream:_ ev ->
      match ev with
      | Trace.Governor_transition { level_to = 2; _ } -> reached_2 := true
      | Trace.Governor_transition { level_from = 2; _ } -> recovered := true
      | _ -> ());
  require gate !reached_2 "governor never degraded to demand paging (level 2)";
  require gate !recovered "governor never recovered from level 2";
  require gate
    (match r.E.r_runtime with
    | Some rt ->
        rt.Runtime.rt_gov_degrades >= 2 && rt.Runtime.rt_gov_recoveries >= 1
    | None -> false)
    "transition counters missing from runtime stats";
  require gate (cs.Chaos.disk_faults > 0) "no disk faults were injected"

let check_releaser_outage gate _ (cs : Chaos.stats) =
  require gate (cs.Chaos.directives_dropped > 0)
    "no release directives were dropped";
  require gate (cs.Chaos.releaser_stall_ns > 0) "the releaser never stalled"

let check_pressure gate _ (cs : Chaos.stats) =
  require gate (cs.Chaos.pressure_spikes > 0) "no pressure spike fired";
  require gate (cs.Chaos.pressure_pages > 0)
    "the phantom competitor claimed no pages"

(* Each plan is a traced cell under the tight governor, named, with the
   check its injected faults must pass. *)
let chaos_plans =
  let plan name ?sleep workload variant spec check =
    ( "chaos " ^ name,
      Figures.corun ?sleep ~traced:true ~chaos:spec ~governor:chaos_governor
        machine workload variant,
      check )
  in
  [
    plan "disk-brown-out" "EMBAR" E.B
      "disk-fault@2s-6s:p=0.8,retries=4;disk-slow@2s-6s:factor=32"
      check_brown_out;
    plan "releaser-outage" "MATVEC" E.B
      "releaser-stall@1s-3s;releaser-drop@1s-4s:p=0.5" check_releaser_outage;
    plan "pressure-spike" ~sleep:(Time_ns.sec 2) "MATVEC" E.R
      "pressure@10s-40s:pages=512,hold=2s" check_pressure;
  ]

let chaos =
  let read l =
    let check (gate, cell, check) =
      let r = Figures.result l cell in
      (match r.E.r_chaos with
      | Some cs -> check gate r cs
      | None -> failwith (gate ^ ": no chaos stats"));
      r
    in
    let label = Printf.sprintf "chaos scenarios, %s" machine.Machine.m_name in
    { doc = metrics ~label (List.map check chaos_plans); artifacts = [] }
  in
  let cells = List.map (fun (_, cell, _) -> cell) chaos_plans in
  { name = "chaos"; baseline = "CHAOS_metrics.json"; cells; read }

(* ------------------------------------------------------------------ *)
(* serve: tail latency under a hog, with per-request blame            *)
(* ------------------------------------------------------------------ *)

(* Offered loads at and past the quick machine's knee, where the
   un-released hog's page stealing outruns the server's self-healing
   urgent re-prefetches.  Below the knee both variants hold the SLO and
   the comparison is noise. *)
let serve_rates = [ 1600.0; 3840.0 ]

let serve =
  let cells, read = Serve.plan ~machine ~rates:serve_rates () in
  let read l =
    let t = read l in
    List.iter
      (fun rate ->
        let p999 v =
          let r =
            List.assoc { Serve.sc_rate = rate; sc_variant = v } (Serve.cells t)
          in
          Histogram.percentile (Serve.serving_exn r).Server.sm_hist 99.9
        in
        let o = p999 E.O and b = p999 E.B in
        require "serve" (b < o)
          (Printf.sprintf
             "at %g rps buffered release must beat the un-released hog on \
              p999 (O %d ns, B %d ns)"
             rate o b))
      serve_rates;
    (* Additivity is structural in Reqtrace: a sampled span whose five
       components miss its response means the span lifecycle was
       corrupted. *)
    List.iter
      (fun (r : E.result) ->
        Reqtrace.iter_sampled r.E.r_reqtrace (fun sp ->
            let open Reqtrace in
            let parts =
              sp.sp_queue + sp.sp_index + sp.sp_value + sp.sp_cpu + sp.sp_compute
            in
            if parts <> sp.sp_response then
              failwith
                (Printf.sprintf
                   "serve: span key=%d components sum to %d ns, response %d ns"
                   sp.sp_key parts sp.sp_response)))
      (Serve.results t);
    {
      doc = Metrics_io.metrics_json (Serve.metrics t);
      artifacts =
        (match Serve.slowest t with
        | Some sp ->
            [
              ( "BLAME_slowest.trace.json",
                Trace_export.blame_span_to_chrome_json sp );
            ]
        | None -> []);
    }
  in
  { name = "serve"; baseline = "SERVE_metrics.json"; cells; read }

(* ------------------------------------------------------------------ *)
(* tiers, obs: the tiered store and its telemetry brownout             *)
(* ------------------------------------------------------------------ *)

(* The partition cell serves at the knee: low enough that post-window
   recovery is physically possible, high enough that the fault window
   sees thousands of in-flight requests. *)
let partition_rate = List.hd serve_rates

let tiers =
  let cells, read = Tier_exp.plan ~machine ~rate:partition_rate () in
  let read l =
    let t = read l in
    Tier_exp.check t;
    (* The mix cells run the hog alone, so the ledger must reconcile with
       the VM's counters exactly (the swap mix is plain EMBAR/B). *)
    List.iter
      (fun ((m : Tier_exp.mix), (r : E.result)) ->
        let gate = "tiers " ^ m.Tier_exp.mx_name in
        List.iter
          (fun (counter, ledger, vm) ->
            require gate (ledger = vm)
              (Printf.sprintf "%s: ledger %d <> vm %d" counter ledger vm))
          (E.ledger_reconciliation r);
        require gate
          (Ledger.invariants_ok r.E.r_ledger)
          "ledger summary violates its structural invariants")
      t.Tier_exp.tx_mixes;
    {
      doc = Metrics_io.metrics_json (Tier_exp.metrics t);
      artifacts = [];
    }
  in
  { name = "tiers"; baseline = "TIER_metrics.json"; cells; read }

(* obs: the tiers partition cell re-run with the full telemetry probe set
   and the default alert rules, as a brownout.  The breaker handles a
   clean far-link partition so well that the server never notices (that
   is the tiers entry's own check), so on its own the partition flaps the
   breaker without burning the SLO.  Slowing the swap volume over the same
   window puts the failover traffic on a degraded disk: demand fetches
   queue behind the rescued demotions and the burn-rate rules cross for
   real, then clear as the window ends.  With no other instrumentation,
   the alert timeline alone must tell that story. *)
let brownout_chaos = Tier_exp.partition_chaos ^ ";disk-slow@6s-9s:factor=4"

(* The chaos window, plus the slack the rolling windows introduce: a rule
   watching a 2-5 s window crosses its threshold only after enough
   post-fault scrapes accumulate, and clears only after the window slides
   past the burst. *)
let window_start = Time_ns.sec 6
let window_end = Time_ns.sec 9
let fire_slack = Time_ns.sec 3

let check_obs (r : E.result) =
  let require name = require ("obs " ^ name) in
  let tl = r.E.r_telemetry in
  require "registry" (Telemetry.scrapes tl > 0) "registry never scraped";
  (* Every subsystem must have registered: a missing probe silently
     narrows the dashboard, so presence is part of the gate. *)
  List.iter
    (fun name ->
      require "probes"
        (Telemetry.summary_of tl name <> None)
        (Printf.sprintf "series %S missing from the registry" name))
    [
      "free"; "app-rss"; "app-limit"; "trace-dropped"; "hard-faults";
      "refaults"; "swap-queue"; "swap-timeouts"; "breaker-state";
      "breaker-transitions"; "release-buffer"; "gov-level"; "queue-depth";
      "arrivals"; "slo-recorded"; "slo-missed";
    ];
  let alerts = Telemetry.alerts tl in
  require "alerts" (alerts <> []) "the brownout produced no alerts";
  (* A named rule must fire inside (or just after — rolling-window lag)
     the partition window, and clear again before the run ends.  Fires
     outside the window (the warm-up turbulence trips the burn rules
     early, honestly) don't count. *)
  let fired_in_window rule (a : Telemetry.alert) =
    a.Telemetry.al_rule = rule && a.Telemetry.al_fired
    && a.Telemetry.al_time >= window_start
    && a.Telemetry.al_time <= window_end + fire_slack
  in
  let fired_then_cleared rule =
    match List.find_opt (fired_in_window rule) alerts with
    | None -> require rule false "never fired inside the partition window"
    | Some fire ->
        require rule
          (List.exists
             (fun (a : Telemetry.alert) ->
               a.Telemetry.al_rule = rule
               && (not a.Telemetry.al_fired)
               && a.Telemetry.al_time > fire.Telemetry.al_time)
             alerts)
          "fired during the window but never cleared"
  in
  fired_then_cleared "breaker_flap";
  (* Either burn-rate rule counts as "the SLO burned": the fast rule
     needs a half-missed 500 ms window, the slow one a fifth-missed 3 s
     window; which one trips first depends on the machine's headroom. *)
  (match
     List.find_opt
       (fun rule -> List.exists (fired_in_window rule) alerts)
       [ "slo_fast_burn"; "slo_slow_burn" ]
   with
  | Some rule -> fired_then_cleared rule
  | None ->
      require "slo_burn" false
        "no SLO burn-rate rule fired inside the partition window");
  (* The timeline itself must be consistent: alternating fire/clear per
     rule, nondecreasing times. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (a : Telemetry.alert) ->
      let prev =
        Option.value (Hashtbl.find_opt seen a.Telemetry.al_rule) ~default:false
      in
      require "timeline"
        (a.Telemetry.al_fired = not prev)
        (Printf.sprintf "rule %S %s twice in a row" a.Telemetry.al_rule
           (if a.Telemetry.al_fired then "fired" else "cleared"));
      Hashtbl.replace seen a.Telemetry.al_rule a.Telemetry.al_fired)
    alerts

let obs =
  let cell =
    Tier_exp.partition_cell ~chaos:brownout_chaos ~telemetry:true machine
      ~rate:partition_rate
  in
  let read l =
    let r = Figures.result l cell in
    check_obs r;
    {
      doc = metrics ~label:("obs " ^ machine.Machine.m_name) [ r ];
      artifacts =
        [ ("OBS_openmetrics.txt", Telemetry.to_openmetrics r.E.r_telemetry) ];
    }
  in
  { name = "obs"; baseline = "OBS_metrics.json"; cells = [ cell ]; read }

(* ------------------------------------------------------------------ *)
(* perf: the throughput cells' work counters                           *)
(* ------------------------------------------------------------------ *)

let perf =
  let cells, read = Perf.plan ~machine () in
  let read l = { doc = read l; artifacts = [] } in
  { name = "perf"; baseline = "PERF_metrics.json"; cells; read }

(* ------------------------------------------------------------------ *)
(* ablations: the machines that set an ablation switch                 *)
(* ------------------------------------------------------------------ *)

(* The ablation experiments' cells whose machine flips one of Config's
   four switches: hardware reference bits, rescue off, blocking prefetch,
   and a prefetch that fills the TLB.  Only these cells reach the VM's
   rescue-off, blocking-prefetch and hardware-bit paths. *)
let ablations =
  let switched = function
    | Figures.Corun c ->
        c.Figures.c_machine.Machine.m_config <> machine.Machine.m_config
    | Figures.Two_hogs _ -> false
  in
  let ids =
    [ "ablation-hwbits"; "ablation-rescue"; "ablation-drop"; "ablation-tlb" ]
  in
  let cells =
    List.concat_map
      (fun (x : Figures.experiment) ->
        if List.mem x.Figures.id ids then List.filter switched x.Figures.cells
        else [])
      (Figures.experiments machine)
  in
  let read l =
    let label = "ablation machines, " ^ machine.Machine.m_name in
    { doc = metrics ~label (List.map (Figures.result l) cells); artifacts = [] }
  in
  { name = "ablations"; baseline = "ABLATION_metrics.json"; cells; read }

let entries = [ smoke; chaos; serve; tiers; obs; perf; ablations ]

let select names =
  let find n = List.find_opt (fun e -> e.name = n) entries in
  match List.filter (fun n -> find n = None) names with
  | [] -> Ok (if names = [] then entries else List.filter_map find names)
  | unknown ->
      Error
        (Printf.sprintf "unknown gate %s (known: %s)"
           (String.concat ", " unknown)
           (String.concat ", " (List.map (fun e -> e.name) entries)))

let compare ~baseline doc = Metrics_io.compare_json ~tolerance:0.0 baseline doc

(* The observability experiment: the Tier_exp brownout scenario re-run
   with the full telemetry probe set and the default alert rules.  The
   far tier is hard-partitioned mid-window ([net-partition@6s-9s]) while
   the EMBAR/R hog keeps demoting and the open-loop server keeps
   serving; the registry must tell that story on its own — the breaker
   flaps, the SLO burns, and both alerts clear once the link heals.

   One cell, cell-private registry, deterministic scrape cadence: the
   resulting OBS_metrics.json (telemetry object included) is
   byte-identical at any [--jobs] level. *)

open Memhog_sim
module E = Experiment
module Workload = Memhog_workloads.Workload

type t = { ox_result : E.result }

let results t = [ t.ox_result ]
let telemetry t = t.ox_result.E.r_telemetry

(* The Tier_exp partition window, widened into a brownout: the breaker
   handles a clean far-link partition so well that the server never
   notices (that is Tier_exp's own gate), so on its own the partition
   flaps the breaker without burning the SLO.  Slowing the swap volume
   over the same window puts the failover traffic on a degraded disk —
   demand fetches queue behind the rescued demotions and the burn-rate
   rules cross for real, then clear as the window ends. *)
let brownout_chaos = Tier_exp.partition_chaos ^ ";disk-slow@6s-9s:factor=4"

let run ?(machine = Machine.paper) ~rate () =
  let serve =
    E.serve_cfg ~machine ~mark:Tier_exp.partition_mark ~rate_rps:rate ()
  in
  (* Same cell as Tier_exp's partition scenario (EMBAR/R: dirty releases
     keep the demotion path hot through the window) with [telemetry]
     switched on, so every probe and rule is live. *)
  let r =
    E.run
      (E.setup ~machine ~workload:(Workload.find "EMBAR") ~variant:E.R
         ~chaos:brownout_chaos ~tiers:Tier_exp.partition_tiers
         ~trace:(Trace.create ()) ~serve ~telemetry:true ())
  in
  { ox_result = r }

(* The chaos window of [Tier_exp.partition_chaos], plus the slack the
   rolling windows introduce: a rule watching a 2-5 s window crosses its
   threshold only after enough post-fault scrapes accumulate, and clears
   only after the window slides past the burst. *)
let window_start = Time_ns.sec 6
let window_end = Time_ns.sec 9
let fire_slack = Time_ns.sec 3

let require name cond msg =
  if not cond then failwith (Printf.sprintf "obs %s: %s" name msg)

let check t =
  let r = t.ox_result in
  require "cell" r.E.r_invariants_ok "OS invariants violated after the run";
  let tl = r.E.r_telemetry in
  require "registry" (Telemetry.enabled tl) "telemetry registry not enabled";
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
  let fired_then_cleared rule ~latest_fire =
    let window_fire =
      List.find_opt
        (fun (a : Telemetry.alert) ->
          a.Telemetry.al_rule = rule && a.Telemetry.al_fired
          && a.Telemetry.al_time >= window_start
          && a.Telemetry.al_time <= latest_fire)
        alerts
    in
    match window_fire with
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
  fired_then_cleared "breaker_flap" ~latest_fire:(window_end + fire_slack);
  (* Either burn-rate rule counts as "the SLO burned": the fast rule
     needs a half-missed 500 ms window, the slow one a fifth-missed 3 s
     window; which one trips first depends on the machine's headroom. *)
  let slo_fired rule =
    List.exists
      (fun (a : Telemetry.alert) ->
        a.Telemetry.al_rule = rule && a.Telemetry.al_fired
        && a.Telemetry.al_time >= window_start
        && a.Telemetry.al_time <= window_end + fire_slack)
      alerts
  in
  (match
     List.find_opt slo_fired [ "slo_fast_burn"; "slo_slow_burn" ]
   with
  | Some rule -> fired_then_cleared rule ~latest_fire:(window_end + fire_slack)
  | None ->
      require "slo_burn" false
        "no SLO burn-rate rule fired inside the partition window");
  (* The timeline itself must be consistent: alternating fire/clear per
     rule, nondecreasing times. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (a : Telemetry.alert) ->
      let prev = Option.value (Hashtbl.find_opt seen a.Telemetry.al_rule) ~default:false in
      require "timeline"
        (a.Telemetry.al_fired = not prev)
        (Printf.sprintf "rule %S %s twice in a row" a.Telemetry.al_rule
           (if a.Telemetry.al_fired then "fired" else "cleared"));
      Hashtbl.replace seen a.Telemetry.al_rule a.Telemetry.al_fired)
    alerts

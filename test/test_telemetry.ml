(* Tests for the unified telemetry registry: ring/window scrape math
   (qcheck against a list-based reference), alert-rule hysteresis (no
   chatter on a boundary-oscillating signal), OpenMetrics well-formedness,
   alert timeline + trace emission, and byte-identical telemetry objects
   in the canonical metrics at --jobs 1 vs --jobs 8. *)

module Telemetry = Memhog_sim.Telemetry
module Trace = Memhog_sim.Trace
module Obs = Memhog_sim.Obs
module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module Metrics = Memhog_core.Metrics
module Mio = Memhog_core.Metrics_io
module Pool = Memhog_core.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* One gauge driven through a ref, scraped once per value at times
   0, 100, 200, ... *)
let scrape_values ?capacity values =
  let tl = Telemetry.create ?capacity () in
  let v = ref 0.0 in
  Telemetry.register_gauge tl ~name:"x" (fun () -> !v);
  List.iteri
    (fun i value ->
      v := value;
      Telemetry.scrape tl ~time:(i * 100))
    values;
  tl

(* ------------------------------------------------------------------ *)
(* Ring / window math vs a list-based reference                        *)
(* ------------------------------------------------------------------ *)

let last_n n l =
  let len = List.length l in
  List.filteri (fun i _ -> i >= len - n) l

let prop_ring_retains_suffix =
  QCheck.Test.make ~name:"retained window == last-capacity suffix" ~count:200
    QCheck.(
      pair (int_range 1 16)
        (list_of_size (Gen.int_range 0 64) (float_bound_inclusive 100.0)))
    (fun (capacity, values) ->
      let tl = scrape_values ~capacity values in
      let expected =
        last_n capacity (List.mapi (fun i v -> (i * 100, v)) values)
      in
      Telemetry.window tl "x" = expected)

let prop_aggregates_exact_despite_wrap =
  QCheck.Test.make
    ~name:"all-time aggregates ignore ring drops" ~count:200
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 1 64) (float_bound_inclusive 100.0)))
    (fun (capacity, values) ->
      let tl = scrape_values ~capacity values in
      match Telemetry.summary_of tl "x" with
      | None -> false
      | Some s ->
          let n = List.length values in
          let sum = List.fold_left ( +. ) 0.0 values in
          s.Telemetry.ts_samples = n
          && s.Telemetry.ts_min = List.fold_left min (List.hd values) values
          && s.Telemetry.ts_max = List.fold_left max (List.hd values) values
          && s.Telemetry.ts_last = List.nth values (n - 1)
          && Float.abs (s.Telemetry.ts_mean -. (sum /. float_of_int n))
             <= 1e-9 *. Float.max 1.0 (Float.abs sum))

let test_window_mean_over_window () =
  let tl = scrape_values ~capacity:8 [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ] in
  (* A Window_mean rule over the last 3 samples sees (4+5+6)/3 = 5. *)
  Telemetry.add_rule tl ~name:"hi" ~series:"x" ~window:3 ~signal:Telemetry.Window_mean
    ~direction:Telemetry.Above ~fire:4.9 ~clear:1.0 ();
  Telemetry.scrape tl ~time:1000;
  check_bool "fired on the windowed mean" true
    (Telemetry.active_rules tl = [ "hi" ])

(* ------------------------------------------------------------------ *)
(* Hysteresis                                                          *)
(* ------------------------------------------------------------------ *)

let prop_no_chatter_between_thresholds =
  (* Any signal strictly between clear (5) and fire (10) must produce zero
     transitions, no matter how it oscillates. *)
  QCheck.Test.make ~name:"no chatter strictly between thresholds" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 64)
        (QCheck.map (fun f -> 5.0 +. (f /. 100.0 *. 4.98) +. 0.01)
           (float_bound_inclusive 100.0)))
    (fun values ->
      let tl = Telemetry.create () in
      let v = ref (List.hd values) in
      Telemetry.register_gauge tl ~name:"x" (fun () -> !v);
      Telemetry.add_rule tl ~name:"r" ~series:"x" ~signal:Telemetry.Last
        ~direction:Telemetry.Above ~fire:10.0 ~clear:5.0 ();
      List.iteri
        (fun i value ->
          v := value;
          Telemetry.scrape tl ~time:(i * 100))
        values;
      Telemetry.alerts tl = [])

let test_hysteresis_cycle () =
  let trace = Trace.create () in
  let tl = Telemetry.create ~obs:(Obs.create ~trace ()) () in
  let v = ref 0.0 in
  Telemetry.register_gauge tl ~name:"x" (fun () -> !v);
  Telemetry.add_rule tl ~name:"r" ~series:"x" ~signal:Telemetry.Last
    ~direction:Telemetry.Above ~fire:10.0 ~clear:5.0 ();
  let step t value =
    v := value;
    Telemetry.scrape tl ~time:t
  in
  step 0 0.0;       (* below everything: inactive *)
  step 100 12.0;    (* crosses fire: one fire *)
  step 200 8.0;     (* between thresholds: stays active *)
  step 300 11.0;    (* re-crosses fire while active: no second fire *)
  step 400 4.0;     (* crosses clear: one clear *)
  step 500 6.0;     (* between thresholds: stays inactive *)
  let timeline =
    List.map
      (fun (a : Telemetry.alert) ->
        (a.Telemetry.al_time, a.Telemetry.al_fired))
      (Telemetry.alerts tl)
  in
  check_bool "one fire then one clear" true
    (timeline = [ (100, true); (400, false) ]);
  check_bool "inactive at the end" true (Telemetry.active_rules tl = []);
  (* Both transitions landed in the trace as typed events. *)
  let fires = ref 0 and clears = ref 0 in
  Trace.iter trace (fun ~time:_ ~stream event ->
      check_int "alert stream" Trace.telemetry_stream stream;
      match event with
      | Trace.Alert_fire { rule; value_ppm } ->
          check_str "fire rule" "r" rule;
          check_int "fire value (ppm)" 12_000_000 value_ppm;
          incr fires
      | Trace.Alert_clear { rule; value_ppm } ->
          check_str "clear rule" "r" rule;
          check_int "clear value (ppm)" 4_000_000 value_ppm;
          incr clears
      | _ -> ());
  check_int "one fire event" 1 !fires;
  check_int "one clear event" 1 !clears

let test_thresholds_must_separate () =
  let tl = Telemetry.create () in
  Telemetry.register_gauge tl ~name:"x" (fun () -> 0.0);
  Alcotest.check_raises "Above needs clear < fire"
    (Invalid_argument "Telemetry.add_rule: Above needs clear < fire")
    (fun () ->
      Telemetry.add_rule tl ~name:"r" ~series:"x" ~signal:Telemetry.Last
        ~direction:Telemetry.Above ~fire:5.0 ~clear:5.0 ())

let test_window_ratio_burn_rate () =
  let tl = Telemetry.create () in
  let missed = ref 0.0 and recorded = ref 0.0 in
  Telemetry.register_counter tl ~name:"missed" (fun () -> !missed);
  Telemetry.register_counter tl ~name:"recorded" (fun () -> !recorded);
  Telemetry.add_rule tl ~name:"burn" ~series:"missed" ~window:3
    ~signal:(Telemetry.Window_ratio "recorded") ~direction:Telemetry.Above
    ~fire:0.5 ~clear:0.1 ();
  let step t dm dr =
    missed := !missed +. dm;
    recorded := !recorded +. dr;
    Telemetry.scrape tl ~time:t
  in
  step 0 0.0 10.0;
  step 100 0.0 10.0;
  step 200 0.0 10.0;
  check_bool "healthy: inactive" true (Telemetry.active_rules tl = []);
  (* The window spans 3 scrape intervals = 30 recorded; 16 of them miss:
     ratio 16/30 = 0.53 >= 0.5. *)
  step 300 8.0 10.0;
  step 400 8.0 10.0;
  check_bool "burning: active" true (Telemetry.active_rules tl = [ "burn" ]);
  (* Recovery: the window slides past the burst, ratio back under 0.1. *)
  step 500 0.0 10.0;
  step 600 0.0 10.0;
  step 700 0.0 10.0;
  check_bool "recovered: cleared" true (Telemetry.active_rules tl = [])

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)
(* ------------------------------------------------------------------ *)

let test_openmetrics_well_formed () =
  let trace = Trace.create () in
  let tl = Telemetry.create ~obs:(Obs.create ~trace ()) () in
  let v = ref 0.0 in
  Telemetry.register_gauge tl ~help:"free frames" ~name:"free" (fun () -> !v);
  Telemetry.register_counter tl ~name:"hard-faults" (fun () -> !v *. 2.0);
  Telemetry.add_rule tl ~name:"starved" ~series:"free" ~signal:Telemetry.Last
    ~direction:Telemetry.Below ~fire:1.0 ~clear:2.0 ();
  v := 10.0;
  Telemetry.scrape tl ~time:0;
  v := 0.5;
  Telemetry.scrape tl ~time:100;
  let text = Telemetry.to_openmetrics tl in
  let lines = String.split_on_char '\n' text in
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  check_bool "gauge TYPE line" true (has "# TYPE memhog_free gauge");
  check_bool "gauge HELP line" true (has "# HELP memhog_free free frames");
  check_bool "counter TYPE line" true
    (has "# TYPE memhog_hard_faults counter");
  check_bool "counter sample suffixed _total" true
    (has "memhog_hard_faults_total ");
  check_bool "bare counter name never sampled" true
    (not
       (List.exists
          (fun l ->
            String.length l >= 19
            && String.sub l 0 19 = "memhog_hard_faults "
            && l.[7] <> '#')
          lines));
  check_bool "alert gauge with rule label" true
    (has "memhog_alert_active{rule=\"starved\"} 1");
  check_bool "EOF terminated" true
    (let n = String.length text in
     n >= 6 && String.sub text (n - 6) 6 = "# EOF\n")

(* ------------------------------------------------------------------ *)
(* Jobs determinism of the telemetry metrics object                    *)
(* ------------------------------------------------------------------ *)

let run_cell () =
  let wl = Memhog_workloads.Workload.find "EMBAR" in
  E.run
    (E.setup ~machine:Machine.quick ~workload:wl ~variant:E.B ~iterations:1
       ~tiers:"far" ~telemetry:true ())

(* The canonical metrics document embeds the telemetry object, so string
   equality here is the acceptance criterion "the telemetry object is
   byte-identical at --jobs 1 and --jobs 8" (and then some). *)
let render r =
  Mio.to_string (Mio.metrics_json (Metrics.of_results ~label:"telemetry" [ r ]))

let test_jobs_determinism () =
  let serial = render (run_cell ()) in
  let pooled = Pool.map ~jobs:8 (fun () -> render (run_cell ())) [ (); () ] in
  List.iteri
    (fun i s -> check_str (Printf.sprintf "pooled replica %d" i) serial s)
    pooled;
  check_bool "document mentions the telemetry object" true
    (let re = "\"telemetry\":" in
     let rec find i =
       i + String.length re <= String.length serial
       && (String.sub serial i (String.length re) = re || find (i + 1))
     in
     find 0)

let test_full_probe_set_registered () =
  let r = run_cell () in
  let tl = r.E.r_telemetry in
  List.iter
    (fun name ->
      check_bool (Printf.sprintf "series %s registered" name) true
        (Telemetry.summary_of tl name <> None))
    [
      "free"; "app-rss"; "app-limit"; "trace-dropped"; "hard-faults";
      "refaults"; "swap-queue"; "swap-busy-ns"; "swap-timeouts";
      "breaker-state"; "breaker-transitions"; "tier-rescues";
      "far-failovers"; "release-buffer"; "gov-level"; "gov-transitions";
    ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "memhog_telemetry"
    [
      ( "rules",
        [
          Alcotest.test_case "windowed mean" `Quick test_window_mean_over_window;
          Alcotest.test_case "hysteresis cycle + trace" `Quick
            test_hysteresis_cycle;
          Alcotest.test_case "threshold separation" `Quick
            test_thresholds_must_separate;
          Alcotest.test_case "burn-rate ratio" `Quick
            test_window_ratio_burn_rate;
        ] );
      ( "export",
        [
          Alcotest.test_case "openmetrics well-formed" `Quick
            test_openmetrics_well_formed;
        ] );
      ( "harness",
        [
          Alcotest.test_case "--jobs 1 == --jobs 8 (byte-identical)" `Quick
            test_jobs_determinism;
          Alcotest.test_case "full probe set registered" `Quick
            test_full_probe_set_registered;
        ] );
      qsuite "properties"
        [
          prop_ring_retains_suffix;
          prop_aggregates_exact_despite_wrap;
          prop_no_chatter_between_thresholds;
        ];
    ]

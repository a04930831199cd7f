(* The benchmark's own checks: its batch workload is the perf gate's CGM/P
   cell, its layer drivers exercise the paths they claim to time, and the
   observation sinks it toggles never change the simulation. *)

open Memhog_perfbench
module E = Memhog_core.Experiment
module Json = Memhog_core.Metrics_io
module Perf = Memhog_core.Perf
module VS = Memhog_vm.Vm_stats
module W = Workloads
module D = Drivers

let run_workload ?(seed = W.default_seed) (w : W.t) sinks =
  List.map E.run (w.W.cells ~seed sinks)

(* ------------------------------------------------------------------ *)
(* Tie to the perf gate                                                *)
(* ------------------------------------------------------------------ *)

let perf_work label =
  match Perf.load_file ~path:"../../bench/PERF_metrics.json" with
  | Error e -> Alcotest.fail e
  | Ok (Json.Obj doc) ->
      let cells =
        match List.assoc_opt "cells" doc with
        | Some (Json.Arr cs) -> cs
        | _ -> Alcotest.fail "PERF_metrics.json: no cells"
      in
      let cell =
        List.find
          (function
            | Json.Obj kvs -> List.assoc_opt "label" kvs = Some (Json.Str label)
            | _ -> false)
          cells
      in
      let field name =
        match cell with
        | Json.Obj kvs -> (
            match List.assoc_opt "work" kvs with
            | Some (Json.Obj work) -> (
                match List.assoc_opt name work with
                | Some (Json.Num (v, _)) -> int_of_float v
                | _ -> Alcotest.failf "%s: no work.%s" label name)
            | _ -> Alcotest.failf "%s: no work object" label)
        | _ -> assert false
      in
      field
  | Ok _ -> Alcotest.fail "PERF_metrics.json: not an object"

let batch_matches_perf_gate () =
  let r =
    match run_workload W.batch_compute W.batch_compute.W.sinks with
    | [ r ] -> r
    | _ -> Alcotest.fail "batch-compute has one cell"
  in
  let work = perf_work "CGM/P" in
  Alcotest.(check int) "events" (work "events") r.E.r_events_executed;
  Alcotest.(check int) "hard faults" (work "hard_faults")
    r.E.r_app_stats.VS.hard_faults;
  Alcotest.(check int) "soft faults" (work "soft_faults")
    r.E.r_app_stats.VS.soft_faults;
  Alcotest.(check int) "sim ns" (work "sim_ns") r.E.r_elapsed;
  Alcotest.(check int) "events = 3,500,844" 3_500_844
    r.E.r_events_executed;
  Alcotest.(check int) "sim ns = 19,379,655,660" 19_379_655_660
    r.E.r_elapsed;
  Alcotest.(check string) "recorded digest" W.batch_compute.W.digest_42
    (W.digest [ r ]);
  Alcotest.(check (option string)) "checks pass" None
    (W.check W.batch_compute ~seed:W.default_seed
       ~sinks:W.batch_compute.W.sinks [ r ])

(* ------------------------------------------------------------------ *)
(* Drivers exercise the paths they time                                *)
(* ------------------------------------------------------------------ *)

let vm_sweep_is_hard () =
  let v = D.vm ~sweeps:1 () in
  Alcotest.(check bool) "some hard faults" true (v.D.hard.D.n > 0);
  Alcotest.(check int) "first touches all hard" v.D.hard.D.n v.D.fast.D.n;
  Alcotest.(check int) "no other outcome" 0 v.D.other.D.n;
  Alcotest.(check bool) "pages released" true (v.D.release.D.n > 0)

let interp_is_resident () =
  let s = List.hd (W.batch_compute.W.cells ~seed:W.default_seed W.sinks_off) in
  let i = D.interp ~passes:1 s in
  Alcotest.(check int) "no hard faults" 0 i.D.hard_faults;
  Alcotest.(check bool) "touches" true (i.D.touches_per_pass > 0)

let engine_is_deterministic () =
  let a = D.engine ~fibers:8 ~steps:500 () in
  let b = D.engine ~fibers:8 ~steps:500 () in
  Alcotest.(check bool) "events run" true (a.D.events > 8 * 500);
  Alcotest.(check int) "same event count" a.D.events b.D.events

let tiers_reads_hit () =
  let c = D.tiers ~pages:20 () in
  Alcotest.(check int) "reads on both tiers" 40 c.D.n

(* ------------------------------------------------------------------ *)
(* Sinks never change the simulation                                   *)
(* ------------------------------------------------------------------ *)

(* Every simulated quantity the benchmark reports, in one comparable
   value. *)
let simulated (r : E.result) =
  ( W.cell_digest r,
    r.E.r_app_stats,
    r.E.r_global,
    r.E.r_runtime,
    r.E.r_breakdown,
    r.E.r_disk_busy,
    Option.map
      (fun s ->
        ( s.Memhog_exec.Server.sm_max_queue,
          s.Memhog_exec.Server.sm_slo_ok,
          Memhog_sim.Histogram.to_alist s.Memhog_exec.Server.sm_hist ))
      r.E.r_serving,
    Memhog_sim.Histogram.to_alist r.E.r_fault_hist )

let sinks_off_identical () =
  let w = W.serve_observed in
  let on = run_workload w W.sinks_on in
  let off = run_workload w W.sinks_off in
  Alcotest.(check bool) "every simulated metric identical" true
    (List.map simulated on = List.map simulated off);
  Alcotest.(check (option string)) "checks pass with sinks on" None
    (W.check w ~seed:W.default_seed ~sinks:W.sinks_on on)

let held_out_seed_is_deterministic () =
  let w = W.batch_compute in
  let a = run_workload ~seed:7 w w.W.sinks in
  let b = run_workload ~seed:7 w w.W.sinks in
  Alcotest.(check string) "same digest twice" (W.digest a) (W.digest b);
  Alcotest.(check bool) "differs from the default seed" true
    (W.digest a <> w.W.digest_42);
  Alcotest.(check (option string)) "checks pass" None
    (W.check w ~seed:7 ~sinks:w.W.sinks a)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let quartiles_match_python () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "median" 5.5 m;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  (* statistics.quantiles([3, 1], n=4) = [0.5, 2.0, 3.5] *)
  let q1, m, q3 = Stats.quartiles [ 3.0; 1.0 ] in
  Alcotest.(check (float 1e-12)) "q1 of two" 0.5 q1;
  Alcotest.(check (float 1e-12)) "median of two" 2.0 m;
  Alcotest.(check (float 1e-12)) "q3 of two" 3.5 q3

let () =
  Alcotest.run "perfbench"
    [
      ( "gate",
        [ Alcotest.test_case "batch-compute = PERF CGM/P" `Slow batch_matches_perf_gate ] );
      ( "drivers",
        [
          Alcotest.test_case "vm sweep touches are hard" `Quick vm_sweep_is_hard;
          Alcotest.test_case "interp machine is resident" `Quick interp_is_resident;
          Alcotest.test_case "engine event count repeats" `Quick
            engine_is_deterministic;
          Alcotest.test_case "tier reads hit" `Quick tiers_reads_hit;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "sinks off leave simulation identical" `Slow
            sinks_off_identical;
          Alcotest.test_case "held-out seed repeats" `Slow
            held_out_seed_is_deterministic;
        ] );
      ("stats", [ Alcotest.test_case "quartiles" `Quick quartiles_match_python ]);
    ]

(* Tests for the perf gate's document: it must be byte-identical at any
   --jobs, and running with the ledger off must not perturb the work
   counters it records. *)

module E = Memhog_core.Experiment
module Figures = Memhog_core.Figures
module Machine = Memhog_core.Machine
module Mio = Memhog_core.Metrics_io
module Perf = Memhog_core.Perf
module VS = Memhog_vm.Vm_stats
module Workload = Memhog_workloads.Workload

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Two small cells keep the test quick while still exercising the pool. *)
let cells =
  [
    { Perf.pc_workload = "MATVEC"; pc_variant = E.O };
    { Perf.pc_workload = "EMBAR"; pc_variant = E.B };
  ]

let document ~jobs =
  let cells, read = Perf.plan ~cells ~machine:Machine.quick () in
  Mio.to_string (read (Figures.simulate ~jobs cells))

let test_jobs_determinism () =
  check_str "--jobs 1 == --jobs 8" (document ~jobs:1) (document ~jobs:8)

let test_ledger_off_same_work () =
  let run ledger_on =
    E.run
      (E.setup ~machine:Machine.quick ~workload:(Workload.find "MATVEC")
         ~variant:E.O ~ledger_on ())
  in
  let on = run true and off = run false in
  check_int "events" on.E.r_events_executed off.E.r_events_executed;
  check_int "hard faults" on.E.r_app_stats.VS.hard_faults
    off.E.r_app_stats.VS.hard_faults;
  check_int "soft faults" on.E.r_app_stats.VS.soft_faults
    off.E.r_app_stats.VS.soft_faults;
  check_int "iterations" on.E.r_iterations off.E.r_iterations;
  check_int "sim ns" on.E.r_elapsed off.E.r_elapsed

let () =
  Alcotest.run "memhog_perf"
    [
      ( "perf",
        [
          Alcotest.test_case "--jobs 1 == --jobs 8 (work projection)" `Quick
            test_jobs_determinism;
          Alcotest.test_case "ledger off leaves work unchanged" `Quick
            test_ledger_off_same_work;
        ] );
    ]

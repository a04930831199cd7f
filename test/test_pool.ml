(* Tests for the parallel map and the cell plan: order preservation,
   exception propagation, each distinct cell simulated once, and the
   harness's bit-identical --jobs 1 / --jobs N guarantee. *)

open Memhog_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f xs) (Pool.map ~jobs f xs))
    [ 1; 2; 4; 8 ]

let test_map_edge_shapes () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~jobs:4 Fun.id [ 7 ]);
  (* more jobs than work, and non-positive jobs clamp to serial *)
  Alcotest.(check (list int)) "jobs>n" [ 1; 2 ] (Pool.map ~jobs:64 Fun.id [ 1; 2 ]);
  Alcotest.(check (list int)) "jobs=0" [ 1; 2 ] (Pool.map ~jobs:0 Fun.id [ 1; 2 ])

let test_map_propagates_exceptions () =
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs (fun x -> if x = 13 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom 13 -> ())
    [ 1; 4 ]

(* Worker domains must be able to run whole simulations (the engine's
   effect handlers are per-fiber, not per-process). *)
let test_simulations_in_workers () =
  let run_sim n =
    let e = Memhog_sim.Engine.create () in
    let acc = ref 0 in
    ignore
      (Memhog_sim.Engine.spawn e ~name:"worker" (fun () ->
           for i = 1 to n do
             Memhog_sim.Engine.delay ~cat:Memhog_sim.Account.User 10;
             acc := !acc + i
           done));
    Memhog_sim.Engine.run e;
    !acc
  in
  let expected = List.map run_sim [ 10; 100; 1000; 10000 ] in
  let got = Pool.map ~jobs:4 run_sim [ 10; 100; 1000; 10000 ] in
  Alcotest.(check (list int)) "simulated in parallel" expected got

(* ------------------------------------------------------------------ *)
(* The cell plan                                                       *)
(* ------------------------------------------------------------------ *)

let distinct_count exps =
  List.length
    (Figures.distinct
       (List.concat_map (fun (e : Figures.experiment) -> e.Figures.cells) exps))

(* What memhog paper reads at paper scale, counted without simulating.
   The six matrix readers declare one list, which a harness without a
   shared plan simulated once, so equal lists count once. *)
let test_plan_counts () =
  let exps = Figures.experiments Machine.paper in
  check_int "experiments" 19 (List.length exps);
  check_int "cells read" 108
    (List.length
       (List.concat
          (List.sort_uniq compare
             (List.map (fun (e : Figures.experiment) -> e.Figures.cells) exps))));
  check_int "distinct cells" 78 (distinct_count exps);
  (* A fault plan or a trace ring on the matrix makes its co-run cells
     different simulations from fig10a's 5 s row and ext-reactive's P/R
     rows. *)
  check_int "distinct cells, chaos on the matrix" 84
    (distinct_count
       (Figures.experiments ~chaos:"disk-slow@2s-6s:factor=4" Machine.paper));
  check_int "distinct cells, traced matrix" 84
    (distinct_count (Figures.experiments ~traced:true Machine.paper))

(* A pass count is an input like any other: the cell that sets it is a
   different simulation from the one that does not, its label (the
   runner's log line) names it, and the run makes that many passes. *)
let test_iterations_cell () =
  let machine = Machine.quick in
  let default = Figures.corun machine "EMBAR" Experiment.O
  and three = Figures.corun ~iterations:3 machine "EMBAR" Experiment.O in
  check_int "distinct keeps both" 2
    (List.length (Figures.distinct [ default; three; default ]));
  let lines = ref [] in
  let l = Figures.simulate ~log:(fun m -> lines := m :: !lines) [ three ] in
  Alcotest.(check (list string))
    "label names the passes"
    [ "cell 1/1: EMBAR/O passes 3 on " ^ machine.Machine.m_name ]
    !lines;
  check_int "passes run" 3 (Figures.result l three).Experiment.r_iterations

(* The harness's hard guarantee: an experiment's text depends only on its
   cells, not on the job count or on what else shares the plan.  The
   EMBAR matrix and the EMBAR sweep at 5 s read the same four cells, so
   one serial plan of those cells is each experiment's own plan.  Results
   carry live registries (probe closures), so the matrix is compared
   through the canonical metrics serialization — the same bytes the CI
   gates freeze. *)
let test_matrix_deterministic_across_jobs () =
  let machine = Machine.quick in
  let cells, read = Figures.matrix ~machine ~workloads:[ "EMBAR" ] () in
  let sweep = Figures.fig10a ~workload:"EMBAR" ~sleeps_s:[ 5.0 ] machine in
  check_bool "same cells" true
    (List.sort compare cells = List.sort compare sweep.Figures.cells);
  let simulated = ref 0 in
  let both =
    Figures.simulate ~jobs:2
      ~log:(fun _ -> incr simulated)
      (cells @ sweep.Figures.cells)
  in
  check_int "combined plan simulates each cell once" 4 !simulated;
  let own = Figures.simulate ~jobs:1 sweep.Figures.cells in
  let metrics l =
    Metrics_io.to_string (Metrics_io.metrics_json (Metrics.of_matrix (read l)))
  in
  Alcotest.(check string) "results identical" (metrics own) (metrics both);
  Alcotest.(check string)
    "sweep identical" (sweep.Figures.render own) (sweep.Figures.render both)

let () =
  Alcotest.run "memhog_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "order" `Quick test_map_preserves_order;
          Alcotest.test_case "edge shapes" `Quick test_map_edge_shapes;
          Alcotest.test_case "exceptions" `Quick test_map_propagates_exceptions;
          Alcotest.test_case "simulations in workers" `Quick
            test_simulations_in_workers;
        ] );
      ( "plan",
        [
          Alcotest.test_case "cell counts" `Quick test_plan_counts;
          Alcotest.test_case "iterations cell" `Quick test_iterations_cell;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "deterministic across jobs" `Slow
            test_matrix_deterministic_across_jobs;
        ] );
    ]

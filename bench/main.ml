(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, the ablations listed in DESIGN.md, and the bechamel
   microbenchmarks of the simulator primitives.  The tolerance-0
   regression gates live in [memhog gate], not here.

   Usage:
     bench/main.exe                      run everything
     bench/main.exe fig7 table3 ...      run selected experiments
     bench/main.exe --quick ...          use the shrunk machine
     bench/main.exe --jobs N ...         run independent simulations on N
                                         worker domains (default: the
                                         machine's recommended domain
                                         count; results are bit-identical
                                         to --jobs 1 — each cell owns its
                                         engine, OS and RNG)
     bench/main.exe --json ...           write BENCH_matrix.json: the
                                         experiment matrix's wall-clock
                                         per cell, total, jobs used, and
                                         speedup vs the serial estimate;
                                         also BENCH_metrics.json: the
                                         derived simulated metrics
                                         (Memhog_core.Metrics), which are
                                         jobs- and wall-clock-independent
                                         (builds the matrix if no selected
                                         experiment did)
     bench/main.exe --trace DIR ...      also write one Chrome trace_event
                                         JSON per matrix cell into DIR
                                         (WORKLOAD-VARIANT.trace.json)
     bench/main.exe --chaos SPEC ...     inject the given fault plan into
                                         every matrix cell
     bench/main.exe microbench           bechamel microbenchmarks of the
                                         simulator primitives (--smoke for
                                         a CI-safe short run)

   BENCH_matrix.json schema (schema_version 1):
     { "schema_version": 1,
       "machine": <machine name>,
       "jobs": <worker domains>,
       "total_wall_s": <wall-clock for the whole matrix>,
       "serial_estimate_s": <sum of per-cell wall-clocks>,
       "speedup_vs_serial": <serial_estimate_s / total_wall_s>,
       "cells": [ { "label": "WORKLOAD/VARIANT", "wall_s": <float> }, ... ] }

   Experiment ids: table1 table2 fig1 fig7 fig8 table3 fig9 fig10a fig10b
   fig10c ablation-batch ablation-hwbits ablation-conservative
   ablation-rescue ablation-drop ablation-tlb ext-freemem ext-reactive
   ext-two-hogs microbench *)

open Memhog_core

let t0 = Unix.gettimeofday ()

(* Jobs log from worker domains; keep lines whole. *)
let log_mutex = Mutex.create ()

let log msg =
  Mutex.lock log_mutex;
  Printf.eprintf "  [%7.1fs] %s\n%!" (Unix.gettimeofday () -. t0) msg;
  Mutex.unlock log_mutex

let print_section s =
  Printf.printf "\n%s\n%s\n%s\n%!" (String.make 72 '=') s (String.make 72 '=')

(* The matrix (all workloads x O/P/R/B next to the 5 s interactive task) is
   shared by fig7, fig8, table3, fig9, fig10b, fig10c and --json.  The
   cache lives in the main domain only: run_matrix parallelizes
   internally, so no worker ever touches this ref. *)
let matrix_cache : Figures.matrix option ref = ref None

(* Set by --trace DIR: every matrix cell also writes a Chrome trace_event
   JSON file (WORKLOAD-VARIANT.trace.json) into the directory. *)
let trace_dir : string option ref = ref None

(* Set by --chaos SPEC: inject this fault plan into every matrix cell. *)
let chaos_spec : string option ref = ref None

let get_matrix ~machine ~jobs () =
  match !matrix_cache with
  | Some m -> m
  | None ->
      log
        (Printf.sprintf
           "building experiment matrix (6 workloads x O/P/R/B + interactive, \
            %d jobs)"
           jobs);
      let m =
        Figures.run_matrix ~machine ~jobs ~log ?trace_dir:!trace_dir
          ?chaos:!chaos_spec ()
      in
      matrix_cache := Some m;
      m

(* ------------------------------------------------------------------ *)
(* BENCH_matrix.json                                                   *)
(* ------------------------------------------------------------------ *)

let write_matrix_json ~path (m : Figures.matrix) =
  let serial_estimate =
    List.fold_left
      (fun acc c -> acc +. c.Figures.ct_wall_s)
      0.0 m.Figures.mx_cells
  in
  let speedup =
    if m.Figures.mx_wall_s > 0.0 then serial_estimate /. m.Figures.mx_wall_s
    else 1.0
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n";
      Printf.fprintf oc "  \"schema_version\": 1,\n";
      Printf.fprintf oc "  \"machine\": \"%s\",\n"
        (Json_str.escape m.Figures.mx_machine.Machine.m_name);
      Printf.fprintf oc "  \"jobs\": %d,\n" m.Figures.mx_jobs;
      Printf.fprintf oc "  \"total_wall_s\": %.6f,\n" m.Figures.mx_wall_s;
      Printf.fprintf oc "  \"serial_estimate_s\": %.6f,\n" serial_estimate;
      Printf.fprintf oc "  \"speedup_vs_serial\": %.3f,\n" speedup;
      Printf.fprintf oc "  \"cells\": [\n";
      let n = List.length m.Figures.mx_cells in
      List.iteri
        (fun i (c : Figures.cell_timing) ->
          Printf.fprintf oc "    { \"label\": \"%s\", \"wall_s\": %.6f }%s\n"
            (Json_str.escape c.Figures.ct_label)
            c.Figures.ct_wall_s
            (if i = n - 1 then "" else ","))
        m.Figures.mx_cells;
      Printf.fprintf oc "  ]\n";
      Printf.fprintf oc "}\n");
  log (Printf.sprintf "wrote %s (%d cells, %.2fs wall, %.2fx vs serial)" path
         (List.length m.Figures.mx_cells) m.Figures.mx_wall_s speedup)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the substrate                            *)
(* ------------------------------------------------------------------ *)

let microbench ~smoke () =
  let open Bechamel in
  let open Toolkit in
  let sim_spin n =
    Staged.stage (fun () ->
        let e = Memhog_sim.Engine.create () in
        ignore
          (Memhog_sim.Engine.spawn e ~name:"spin" (fun () ->
               for _ = 1 to n do
                 Memhog_sim.Engine.delay ~cat:Memhog_sim.Account.User 10
               done));
        Memhog_sim.Engine.run e)
  in
  let vm_touch n =
    Staged.stage (fun () ->
        let config =
          { Memhog_vm.Config.default with Memhog_vm.Config.total_frames = 256 }
        in
        let e = Memhog_sim.Engine.create () in
        let os = Memhog_vm.Os.create ~config ~engine:e () in
        ignore
          (Memhog_sim.Engine.spawn e ~name:"toucher" (fun () ->
               let asp = Memhog_vm.Os.new_process os ~name:"t" in
               let seg =
                 Memhog_vm.Os.map_segment os asp ~name:"d"
                   ~bytes:(128 * 16384) ~on_swap:true
               in
               for i = 0 to n - 1 do
                 ignore
                   (Memhog_vm.Os.touch os asp
                      ~vpn:(seg.Memhog_vm.Address_space.base_vpn + (i mod 128))
                      ~write:false)
               done;
               Memhog_sim.Engine.stop ()));
        Memhog_sim.Engine.run e)
  in
  let heap_churn n =
    Staged.stage (fun () ->
        let h = Memhog_sim.Heap.create ~dummy:0 () in
        for i = 0 to n - 1 do
          Memhog_sim.Heap.add h ~key:(i * 7919 mod 1000) ~seq:i i
        done;
        let rec drain () =
          match Memhog_sim.Heap.pop_min h with
          | Some _ -> drain ()
          | None -> ()
        in
        drain ())
  in
  let release_churn n =
    Staged.stage (fun () ->
        let b = Memhog_runtime.Release_buffer.create () in
        for i = 0 to n - 1 do
          let tag = i mod 97 in
          Memhog_runtime.Release_buffer.add b ~tag ~priority:((tag mod 3) + 1)
            ~vpn:i
        done;
        let rec drain () =
          if Array.length (Memhog_runtime.Release_buffer.pop_lowest b ~max:100)
             > 0
          then drain ()
        in
        drain ())
  in
  let test =
    Test.make_grouped ~name:"memhog"
      [
        Test.make ~name:"engine: 10k events" (sim_spin 10_000);
        Test.make ~name:"vm: 10k warm touches" (vm_touch 10_000);
        Test.make ~name:"heap: 10k push/pop" (heap_churn 10_000);
        Test.make ~name:"release buffer: 10k pages" (release_churn 10_000);
      ]
  in
  let benchmark () =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      if smoke then Benchmark.cfg ~limit:20 ~quota:(Time.second 0.2) ()
      else Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ()
    in
    Benchmark.all cfg instances test
  in
  let results = benchmark () in
  let results_analyzed =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      (Instance.monotonic_clock :> Measure.witness)
      results
  in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "Microbenchmarks (%s, ns/run)\n"
    (if smoke then "smoke mode" else "bechamel, monotonic clock");
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.bprintf buf "%-28s %12.1f ns\n" name est
      | _ -> Printf.bprintf buf "%-28s (no estimate)\n" name)
    results_analyzed;
  Buffer.contents buf

let experiments ~machine ~jobs ~smoke =
  [
    ("table1", fun () -> Figures.table1 ~machine ());
    ("table2", fun () -> Figures.table2 ~machine ());
    ("fig1", fun () -> Figures.fig1 ~machine ~jobs ~log ());
    ("fig7", fun () -> Figures.fig7 (get_matrix ~machine ~jobs ()));
    ("fig8", fun () -> Figures.fig8 (get_matrix ~machine ~jobs ()));
    ("table3", fun () -> Figures.table3 (get_matrix ~machine ~jobs ()));
    ("fig9", fun () -> Figures.fig9 (get_matrix ~machine ~jobs ()));
    ("fig10a", fun () -> Figures.fig10a ~machine ~jobs ~log ());
    ("fig10b", fun () -> Figures.fig10b (get_matrix ~machine ~jobs ()));
    ("fig10c", fun () -> Figures.fig10c (get_matrix ~machine ~jobs ()));
    ("ablation-batch", fun () -> Figures.ablation_batch ~machine ~jobs ~log ());
    ("ablation-hwbits", fun () -> Figures.ablation_hwbits ~machine ~jobs ~log ());
    ( "ablation-conservative",
      fun () -> Figures.ablation_conservative ~machine ~jobs ~log () );
    ("ablation-rescue", fun () -> Figures.ablation_rescue ~machine ~jobs ~log ());
    ("ablation-drop", fun () -> Figures.ablation_drop ~machine ~jobs ~log ());
    ("ablation-tlb", fun () -> Figures.ablation_tlb ~machine ~jobs ~log ());
    ("ext-freemem", fun () -> Figures.ext_freemem ~machine ~jobs ~log ());
    ("ext-reactive", fun () -> Figures.ext_reactive ~machine ~jobs ~log ());
    ("ext-two-hogs", fun () -> Figures.ext_two_hogs ~machine ~jobs ~log ());
    ("microbench", fun () -> microbench ~smoke ());
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick] [--jobs N] [--json] [--smoke] [--trace DIR] \
     [--chaos SPEC] [EXPERIMENT ...]\n"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs = ref (Pool.default_jobs ()) in
  let quick = ref false in
  let json = ref false in
  let smoke = ref false in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
            usage ();
            exit 2)
    | "--trace" :: dir :: rest ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then begin
          Printf.eprintf "--trace expects an existing directory, got %s\n" dir;
          usage ();
          exit 2
        end;
        trace_dir := Some dir;
        parse rest
    | "--trace" :: [] ->
        Printf.eprintf "--trace expects a directory argument\n";
        usage ();
        exit 2
    | "--chaos" :: spec :: rest -> (
        match Memhog_sim.Chaos.parse spec with
        | Ok _ ->
            chaos_spec := Some spec;
            parse rest
        | Error e ->
            Printf.eprintf "--chaos: %s\n" e;
            usage ();
            exit 2)
    | "--chaos" :: [] ->
        Printf.eprintf "--chaos expects a fault-plan spec argument\n";
        usage ();
        exit 2
    | "--jobs" :: [] ->
        Printf.eprintf "--jobs expects an argument\n";
        usage ();
        exit 2
    | a :: rest ->
        selected := a :: !selected;
        parse rest
  in
  parse args;
  let machine = if !quick then Machine.quick else Machine.paper in
  let jobs = !jobs in
  let registry = experiments ~machine ~jobs ~smoke:!smoke in
  let to_run =
    match List.rev !selected with
    | [] -> registry
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n registry with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s; known: %s\n" n
                  (String.concat " " (List.map fst registry));
                exit 2)
          names
  in
  log (Printf.sprintf "machine: %s | jobs: %d" machine.Machine.m_name jobs);
  List.iter
    (fun (name, f) ->
      log (Printf.sprintf "=== %s ===" name);
      print_section name;
      print_string (f ());
      print_newline ())
    to_run;
  if !json then begin
    let m = get_matrix ~machine ~jobs () in
    write_matrix_json ~path:"BENCH_matrix.json" m;
    Metrics_io.write_file ~path:"BENCH_metrics.json" (Metrics.of_matrix m);
    log
      (Printf.sprintf "wrote BENCH_metrics.json (%d cells, deterministic)"
         (List.length (Figures.matrix_results m)))
  end;
  log "done"

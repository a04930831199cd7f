module E = Experiment
module Workload = Memhog_workloads.Workload
module VS = Memhog_vm.Vm_stats

type cell = { pc_workload : string; pc_variant : E.variant }

let default_cells =
  [
    { pc_workload = "MATVEC"; pc_variant = E.O };
    { pc_workload = "MATVEC"; pc_variant = E.R };
    { pc_workload = "EMBAR"; pc_variant = E.B };
    { pc_workload = "CGM"; pc_variant = E.P };
  ]

type cell_result = {
  pr_label : string;
  pr_events : int;
  pr_hard_faults : int;
  pr_soft_faults : int;
  pr_iterations : int;
  pr_sim_ns : int;
  pr_wall_s : float;
  pr_events_per_sec : float;
  pr_faults_per_sec : float;
  pr_sim_ns_per_wall_ns : float;
  pr_minor_words : float;
  pr_promoted_words : float;
  pr_major_words : float;
  pr_minor_collections : int;
  pr_major_collections : int;
  pr_minor_words_per_event : float;
}

type t = {
  p_machine : string;
  p_jobs : int;
  p_gc_minor_kb : int option;
  p_ledger : bool;
  p_total_wall_s : float;
  p_cells : cell_result list;
}

let set_gc_minor_kb kb =
  if kb < 32 then invalid_arg "Perf.set_gc_minor_kb: below 32 KiB";
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = kb * 128 (* 8-byte words *) }

(* GC counters are per-domain in OCaml 5, so the deltas must bracket the
   run inside the worker that executes it — measuring from the main domain
   would read the wrong heap. *)
let run_cell ~machine ~ledger (c : cell) =
  let wl = Workload.find c.pc_workload in
  let s =
    E.setup ~machine ~workload:wl ~variant:c.pc_variant ~ledger_on:ledger ()
  in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = E.run s in
  let wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let events = r.E.r_events_executed in
  let faults = r.E.r_app_stats.VS.hard_faults + r.E.r_app_stats.VS.soft_faults in
  let per_sec n = if wall > 0.0 then float_of_int n /. wall else 0.0 in
  let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  {
    pr_label = Printf.sprintf "%s/%s" c.pc_workload (E.variant_name c.pc_variant);
    pr_events = events;
    pr_hard_faults = r.E.r_app_stats.VS.hard_faults;
    pr_soft_faults = r.E.r_app_stats.VS.soft_faults;
    pr_iterations = r.E.r_iterations;
    pr_sim_ns = r.E.r_elapsed;
    pr_wall_s = wall;
    pr_events_per_sec = per_sec events;
    pr_faults_per_sec = per_sec faults;
    pr_sim_ns_per_wall_ns =
      (if wall > 0.0 then float_of_int r.E.r_elapsed /. (wall *. 1e9) else 0.0);
    pr_minor_words = minor_words;
    pr_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    pr_major_words = g1.Gc.major_words -. g0.Gc.major_words;
    pr_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    pr_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    pr_minor_words_per_event =
      (if events > 0 then minor_words /. float_of_int events else 0.0);
  }

let run ?(cells = default_cells) ?(ledger = false) ?gc_minor_kb ~machine ~jobs
    () =
  Option.iter set_gc_minor_kb gc_minor_kb;
  let t0 = Unix.gettimeofday () in
  let results = Pool.map ~jobs (run_cell ~machine ~ledger) cells in
  {
    p_machine = machine.Machine.m_name;
    p_jobs = jobs;
    p_gc_minor_kb = gc_minor_kb;
    p_ledger = ledger;
    p_total_wall_s = Unix.gettimeofday () -. t0;
    p_cells = results;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

open Metrics_io

let schema = "memhog-perf"
let perf_schema_version = 1

(* Wall-clock floats get a fixed format so the file shape is stable even
   though the values are not gated. *)
let num_wall f = Num (f, Printf.sprintf "%.6f" f)

let cell_json (c : cell_result) =
  Obj
    [
      ("label", Str c.pr_label);
      ( "work",
        Obj
          [
            ("events", num_of_int c.pr_events);
            ("hard_faults", num_of_int c.pr_hard_faults);
            ("soft_faults", num_of_int c.pr_soft_faults);
            ("iterations", num_of_int c.pr_iterations);
            ("sim_ns", num_of_int c.pr_sim_ns);
          ] );
      ( "wall",
        Obj
          [
            ("wall_s", num_wall c.pr_wall_s);
            ("events_per_sec", num_wall c.pr_events_per_sec);
            ("faults_per_sec", num_wall c.pr_faults_per_sec);
            ("sim_ns_per_wall_ns", num_wall c.pr_sim_ns_per_wall_ns);
            ("minor_words", num_wall c.pr_minor_words);
            ("promoted_words", num_wall c.pr_promoted_words);
            ("major_words", num_wall c.pr_major_words);
            ("minor_collections", num_of_int c.pr_minor_collections);
            ("major_collections", num_of_int c.pr_major_collections);
            ("minor_words_per_event", num_wall c.pr_minor_words_per_event);
          ] );
    ]

let to_json t =
  Obj
    ([
       ("schema", Str schema);
       ("schema_version", num_of_int perf_schema_version);
       ("machine", Str t.p_machine);
       ("jobs", num_of_int t.p_jobs);
     ]
    @ (match t.p_gc_minor_kb with
      | Some kb -> [ ("gc_minor_kb", num_of_int kb) ]
      | None -> [])
    @ [
        ("ledger", Bool t.p_ledger);
        ("total_wall_s", num_wall t.p_total_wall_s);
        ("cells", Arr (List.map cell_json t.p_cells));
      ])

let write_file ~path t =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string (to_json t)))

let load_file ~path =
  match read_file ~path with
  | Error e -> Error e
  | Ok (Obj kvs as json)
    when List.assoc_opt "schema" kvs = Some (Str schema)
         && (match List.assoc_opt "schema_version" kvs with
            | Some (Num (v, _)) -> int_of_float v = perf_schema_version
            | _ -> false) ->
      Ok json
  | Ok _ ->
      Error
        (Printf.sprintf "%s: not a %s schema_version %d file" path schema
           perf_schema_version)

(* Members that carry wall-clock or environment information; everything
   else in the document is deterministic work. *)
let informational = [ "wall"; "jobs"; "gc_minor_kb"; "total_wall_s" ]

let rec work_projection = function
  | Obj kvs ->
      Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k informational then None
             else Some (k, work_projection v))
           kvs)
  | Arr xs -> Arr (List.map work_projection xs)
  | j -> j

let render t =
  let rows =
    List.map
      (fun c ->
        [
          c.pr_label;
          string_of_int c.pr_events;
          string_of_int (c.pr_hard_faults + c.pr_soft_faults);
          Printf.sprintf "%.3f" c.pr_wall_s;
          Printf.sprintf "%.0f" c.pr_events_per_sec;
          Printf.sprintf "%.0f" c.pr_faults_per_sec;
          Printf.sprintf "%.1f" c.pr_sim_ns_per_wall_ns;
          Printf.sprintf "%.1f" c.pr_minor_words_per_event;
        ])
      t.p_cells
  in
  Format.asprintf "@[<v>%t@]" (fun fmt ->
      Report.table
        ~title:
          (Printf.sprintf
             "Throughput: %s, %d jobs%s (%.2fs wall; work gated, wall \
              informational)"
             t.p_machine t.p_jobs
             (if t.p_ledger then ", ledger on" else "")
             t.p_total_wall_s)
        ~header:
          [
            "cell"; "events"; "faults"; "wall s"; "events/s"; "faults/s";
            "sim-ns/wall-ns"; "minor w/event";
          ]
        ~rows fmt ())

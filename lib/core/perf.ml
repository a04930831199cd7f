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

open Metrics_io

let schema = "memhog-perf"
let perf_schema_version = 2

(* The ledger never touches the engine, so turning it off changes no work
   counter; it only keeps the cells lean. *)
let run_cell ~machine (c : cell) =
  let r =
    E.run
      (E.setup ~machine ~workload:(Workload.find c.pc_workload)
         ~variant:c.pc_variant ~ledger_on:false ())
  in
  Obj
    [
      ( "label",
        Str (Printf.sprintf "%s/%s" c.pc_workload (E.variant_name c.pc_variant))
      );
      ( "work",
        Obj
          [
            ("events", num_of_int r.E.r_events_executed);
            ("hard_faults", num_of_int r.E.r_app_stats.VS.hard_faults);
            ("soft_faults", num_of_int r.E.r_app_stats.VS.soft_faults);
            ("iterations", num_of_int r.E.r_iterations);
            ("sim_ns", num_of_int r.E.r_elapsed);
          ] );
    ]

let run ?(cells = default_cells) ~machine ~jobs () =
  Obj
    [
      ("schema", Str schema);
      ("schema_version", num_of_int perf_schema_version);
      ("machine", Str machine.Machine.m_name);
      ("ledger", Bool false);
      ("cells", Arr (Pool.map ~jobs (run_cell ~machine) cells));
    ]

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

module E = Experiment
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
let plan ?(cells = default_cells) ~machine () =
  let cell c = Figures.corun ~ledger:false machine c.pc_workload c.pc_variant in
  let work l c =
    let r = Figures.result l (cell c) in
    Obj
      [
        ( "label",
          Str
            (Printf.sprintf "%s/%s" c.pc_workload (E.variant_name c.pc_variant))
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
  in
  ( List.map cell cells,
    fun l ->
      Obj
        [
          ("schema", Str schema);
          ("schema_version", num_of_int perf_schema_version);
          ("machine", Str machine.Machine.m_name);
          ("ledger", Bool false);
          ("cells", Arr (List.map (work l) cells));
        ] )

let run ?cells ~machine ~jobs () =
  let cells, read = plan ?cells ~machine () in
  read (Figures.simulate ~jobs cells)

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

(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and the ablations listed in DESIGN.md.  The tolerance-0
   regression gates live in [memhog gate], and the simulator's own speed
   is measured by perfbench/, not here.

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
     bench/main.exe --json ...           also write BENCH_metrics.json: the
                                         experiment matrix's derived
                                         simulated metrics
                                         (Memhog_core.Metrics), which are
                                         jobs- and wall-clock-independent
                                         (simulates the matrix if no
                                         selected experiment reads it)
     bench/main.exe --trace DIR ...      also write one Chrome trace_event
                                         JSON per matrix cell into DIR
                                         (WORKLOAD-VARIANT.trace.json)
     bench/main.exe --chaos SPEC ...     inject the given fault plan into
                                         every matrix cell

   The selected experiments' cells form one plan: each distinct simulation
   runs once, whichever experiments read it, and the experiments print in
   order once the plan is done.  Output is all or nothing: nothing prints
   until every cell has finished, and a cell that raises ends the run
   with no table printed.  The plan holds every result until it prints,
   so the full run's peak resident memory is that of all its results
   together (620-640 MB at paper scale, 110 MB with --quick), plus one
   trace ring per matrix cell with --trace.

   Experiment ids: table1 table2 fig1 fig7 fig8 table3 fig9 fig10a fig10b
   fig10c ablation-batch ablation-hwbits ablation-conservative
   ablation-rescue ablation-drop ablation-tlb ext-freemem ext-reactive
   ext-two-hogs *)

open Memhog_core

let t0 = Unix.gettimeofday ()

(* Worker domains call this only through [Figures.simulate], which
   serializes its calls. *)
let log msg = Printf.eprintf "  [%7.1fs] %s\n%!" (Unix.gettimeofday () -. t0) msg

let print_section s =
  Printf.printf "\n%s\n%s\n%s\n%!" (String.make 72 '=') s (String.make 72 '=')

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick] [--jobs N] [--json] [--trace DIR] [--chaos \
     SPEC] [EXPERIMENT ...]\n"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs = ref (Pool.default_jobs ()) in
  let quick = ref false in
  let json = ref false in
  let trace_dir = ref None in
  let chaos = ref None in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: rest ->
        json := true;
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
            chaos := Some spec;
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
  let jobs = !jobs and chaos = !chaos and traced = !trace_dir <> None in
  let registry = Figures.experiments ?chaos ~traced machine in
  let to_run =
    match List.rev !selected with
    | [] -> registry
    | names ->
        List.map
          (fun n ->
            match
              List.find_opt (fun (e : Figures.experiment) -> e.id = n) registry
            with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %s; known: %s\n" n
                  (String.concat " "
                     (List.map (fun (e : Figures.experiment) -> e.id) registry));
                exit 2)
          names
  in
  let matrix_cells, read_matrix = Figures.matrix ~machine ?chaos ~traced () in
  let cells =
    List.concat_map (fun (e : Figures.experiment) -> e.cells) to_run
    @ if !json then matrix_cells else []
  in
  log (Printf.sprintf "machine: %s | jobs: %d" machine.Machine.m_name jobs);
  let lookup = Figures.simulate ~jobs ~log cells in
  List.iter
    (fun (e : Figures.experiment) ->
      print_section e.id;
      print_string (e.render lookup);
      print_newline ())
    to_run;
  Option.iter (fun dir -> Figures.write_traces ~log ~dir lookup) !trace_dir;
  if !json then begin
    let m = read_matrix lookup in
    Metrics_io.write_file ~path:"BENCH_metrics.json" (Metrics.of_matrix m);
    log
      (Printf.sprintf "wrote BENCH_metrics.json (%d cells, deterministic)"
         (List.length (Figures.matrix_results m)))
  end;
  log "done"

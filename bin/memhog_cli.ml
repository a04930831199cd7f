(* memhog — command-line front end to the reproduction.

   Subcommands:
     list       the benchmark suite (Table 2)
     machine    the simulated machine (Table 1)
     paper      the paper's tables, figures and ablations, and the matrix's
                metrics document
     compile    run the compiler on a benchmark and dump analysis + code
     run        run one experiment and print its metrics document's tables
                (the Metrics_io.render of what --metrics writes, as serve
                and tiers do for their grids)
     sweep      interactive response vs sleep time for any benchmark
     serve      open-loop KV server tail latency and per-request blame vs
                offered load x hog variant, slowest-request trace export
     tiers      tiered backing store: backend mix and far-tier partition
     report     render metrics JSON files as human-readable tables
     compare    diff two metrics JSON files within a tolerance
     gate       re-run the tolerance-0 gates against the committed baselines
     top        replay a telemetry dump as a live terminal dashboard
*)

open Cmdliner
open Memhog_core
module Time_ns = Memhog_sim.Time_ns
module Workload = Memhog_workloads.Workload

let machine_term =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Use the 1/8-scale machine instead of the Table 1 testbed.")
  in
  Term.(const (fun q -> if q then Machine.quick else Machine.paper) $ quick)

let workload_conv =
  let parse s =
    match Workload.find_opt s with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown workload %S (valid: %s)" s
                (String.concat ", " Workload.names)))
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt w.Workload.w_name)

let workload_term =
  Arg.(
    value
    & pos 0 workload_conv (Workload.find "MATVEC")
    & info [] ~docv:"WORKLOAD" ~doc:"Benchmark name (EMBAR, MATVEC, BUK, CGM, MGRID, FFTPDE).")

let variant_conv =
  let parse = function
    | "O" | "o" -> Ok Experiment.O
    | "P" | "p" -> Ok Experiment.P
    | "R" | "r" -> Ok Experiment.R
    | "B" | "b" -> Ok Experiment.B
    | s -> Error (`Msg (Printf.sprintf "unknown variant %s (O, P, R or B)" s))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (Experiment.variant_name v))

(* Numeric options refuse at parse time the values the code they feed
   rejects ([Experiment.setup], [Metrics_io.compare_json], [top]'s width
   and speed), so a bad number is a usage error (exit 124) before anything is
   simulated instead of an empty run or a crash mid-run. *)
let checked ~expected ok conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let passes_conv = checked ~expected:"at least 1 pass" (fun n -> n >= 1) Arg.int

(* A list option names a grid's rows: an empty list would simulate nothing
   and a repeated value would list one simulation twice under one name. *)
let distinct_list conv =
  checked ~expected:"a non-empty list without repeats"
    (fun l -> l <> [] && List.length (List.sort_uniq compare l) = List.length l)
    (Arg.list conv)

let jobs_term =
  Arg.(
    value
    & opt
        (checked ~expected:"at least 1 job" (fun n -> n >= 1) Arg.int)
        (Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run the independent simulations on $(docv) worker domains \
           (default: the machine's recommended domain count).  Results are \
           bit-identical to --jobs 1: each simulation owns its engine, OS \
           and RNG.")

let rate_conv =
  checked ~expected:"a positive rate"
    (fun f -> Float.is_finite f && f > 0.0)
    Arg.float

(* Seconds become simulated ns; a value that rounds to 0 ns (or overflows)
   is as bad as a negative one. *)
let seconds_conv ~positive =
  checked
    ~expected:
      (if positive then "a positive number of seconds"
       else "a non-negative number of seconds")
    (fun f ->
      let ns = Time_ns.of_sec_f f in
      Float.is_finite f && f >= 0.0 && if positive then ns > 0 else ns >= 0)
    Arg.float

(* An output file, or the directory [run --telemetry] creates: its parent
   must exist already, so a mistyped path fails before the simulation
   rather than after it. *)
let out_path_conv =
  let parse s =
    let dir = Filename.dirname s in
    if Sys.file_exists dir && Sys.is_directory dir then Ok s
    else
      Error
        (`Msg (Printf.sprintf "invalid path '%s', no directory %s" s dir))
  in
  Arg.conv (parse, Format.pp_print_string)

(* A fault plan, parsed (and so rejected) before anything runs. *)
let chaos_arg ~doc =
  let parse s =
    match Memhog_sim.Chaos.parse s with
    | Ok _ -> Ok s
    | Error e -> Error (`Msg e)
  in
  Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_string))) None
    & info [ "chaos" ] ~docv:"SPEC" ~doc)

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run machine =
    print_string (Figures.table2 ~machine ());
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the benchmark suite (Table 2).")
    Term.(const run $ machine_term)

(* ------------------------------------------------------------------ *)
(* machine                                                             *)
(* ------------------------------------------------------------------ *)

let machine_cmd =
  let run machine =
    print_string (Figures.table1 ~machine ());
    0
  in
  Cmd.v
    (Cmd.info "machine" ~doc:"Describe the simulated machine (Table 1).")
    Term.(const run $ machine_term)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let variant =
    Arg.(
      value
      & opt variant_conv Experiment.R
      & info [ "variant"; "v" ] ~docv:"V" ~doc:"Variant to generate (O, P, R).")
  in
  let analysis_only =
    Arg.(value & flag & info [ "analysis" ] ~doc:"Print only the analysis.")
  in
  let run machine workload variant analysis_only =
    let prog, _ =
      workload.Workload.w_make
        ~mem_bytes:(Machine.mem_bytes machine)
        ~page_bytes:machine.Machine.m_config.Memhog_vm.Config.page_bytes
    in
    let target = Machine.compiler_target machine in
    Format.printf "=== source ===@.%a@.@." Memhog_compiler.Ir.pp_program prog;
    let ann = Memhog_compiler.Compile.analyze ~target prog in
    Format.printf "=== analysis ===@.%a@.@." Memhog_compiler.Analysis.pp ann;
    if not analysis_only then begin
      let compiled =
        Memhog_compiler.Compile.compile ~target
          ~variant:(Experiment.pir_variant variant) prog
      in
      Format.printf "=== generated code ===@.%a@." Memhog_compiler.Pir.pp compiled
    end;
    0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Run the compiler pass on a benchmark and dump its output.")
    Term.(const run $ machine_term $ workload_term $ variant $ analysis_only)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

(* Every simulating verb runs its cells through the one checked runner: a
   cell that crashes or fails its check is reported by name on stderr, and
   the verb exits 1 with nothing on stdout. *)
let simulate verb ?jobs ?log cells =
  match Figures.simulate ?jobs ?log cells with
  | l -> l
  | exception Failure msg ->
      Format.eprintf "memhog %s: %s@." verb msg;
      exit 1

(* [run], [serve] and [tiers] print the tables of the document their
   --metrics writes. *)
let print_render doc =
  print_string (Result.get_ok (Metrics_io.render (Metrics_io.metrics_json doc)))

let write_metrics doc = function
  | Some path ->
      Metrics_io.write_file ~path doc;
      Format.printf "metrics written to %s@." path
  | None -> ()

let metrics_arg =
  Arg.(
    value
    & opt (some out_path_conv) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the verb's metrics document as canonical JSON, readable by \
           $(b,memhog report) and $(b,memhog compare).")

let run_cmd =
  let variant =
    Arg.(
      value
      & opt variant_conv Experiment.R
      & info [ "variant"; "v" ] ~docv:"V" ~doc:"Variant to run (O, P, R, B).")
  in
  let interactive =
    Arg.(
      value
      & opt (some (seconds_conv ~positive:false)) None
      & info [ "interactive" ] ~docv:"SLEEP_S"
          ~doc:"Co-run the section-1.1 interactive task with this sleep time.")
  in
  let iterations =
    Arg.(
      value
      & opt (some passes_conv) None
      & info [ "iterations"; "n" ] ~docv:"N" ~doc:"Main-computation passes.")
  in
  let conservative =
    Arg.(
      value & flag
      & info [ "conservative" ]
          ~doc:"Use the idealized section-2.3.2 insertion rule.")
  in
  let telemetry =
    Arg.(
      value
      & opt (some out_path_conv) None
      & info [ "telemetry" ] ~docv:"DIR"
          ~doc:
            "Register the full telemetry probe set (VM, disk, tiers, \
             runtime, server) and the default alert rules, print every \
             series as a sparkline (the telemetry and alert-timeline \
             tables carry its numbers), and dump the registry into \
             $(docv): $(b,openmetrics.txt) (text exposition), \
             $(b,series.csv) and $(b,alerts.csv) — the files \
             $(b,memhog top) replays.")
  in
  let csv =
    Arg.(
      value
      & opt (some out_path_conv) None
      & info [ "series"; "csv" ] ~docv:"FILE"
          ~doc:
            "Write the sampled time series to a CSV file \
             ($(b,series,time_ns,value) rows).  Without $(b,--telemetry) \
             this selects the legacy trio — free memory, resident set and \
             the Eq. 1 upper limit — plus the trace-drop counter.")
  in
  let trace =
    Arg.(
      value
      & opt (some out_path_conv) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a structured event trace (faults, prefetches, releases, \
             daemon steals, rescues) and write it as Chrome trace_event \
             JSON, loadable in chrome://tracing or Perfetto.")
  in
  let chaos =
    chaos_arg
      ~doc:
        "Inject faults from this plan (e.g. \
         $(b,disk-fault@10s-20s:p=0.5;pressure@30s-31s:pages=128)).  The \
         plan is seeded with the machine seed, so repeated runs inject the \
         identical schedule.  Also enables the run-time layer's \
         graceful-degradation governor."
  in
  let serve_rate =
    Arg.(
      value
      & opt (some rate_conv) None
      & info [ "serve" ] ~docv:"RPS"
          ~doc:
            "Co-run the open-loop KVSERVE server at $(docv) requests/sec \
             next to the hog and report its tail latency (responses \
             measured from arrival).")
  in
  let tiers_conv =
    let parse s =
      match Memhog_vm.Tiers.spec_of_string s with
      | Ok _ -> Ok s
      | Error e -> Error (`Msg (Printf.sprintf "bad tiers spec: %s" e))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let tiers =
    Arg.(
      value
      & opt (some tiers_conv) None
      & info [ "tiers" ] ~docv:"SPEC"
          ~doc:
            "Install a tiered backing store over the swap volume (e.g. \
             $(b,far+zram+route:thresh=1)): released pages gain fast-tier \
             copies routed by their Eq. 2 priorities, with a circuit \
             breaker failing demotions over to the durable swap copy when \
             the far tier's health degrades.  Clauses: $(b,far), $(b,zram) \
             and $(b,route), each taking $(b,:k=v,...) parameters.")
  in
  let run machine workload variant interactive iterations conservative telemetry
      csv trace metrics chaos serve_rate tiers =
    let cell =
      Figures.corun
        ?sleep:(Option.map Time_ns.of_sec_f interactive)
        ?iterations ~conservative ?chaos ~traced:(trace <> None)
        ?serve:
          (Option.map
             (fun rate_rps -> Experiment.serve_cfg ~machine ~rate_rps ())
             serve_rate)
        ?tiers ~telemetry:(telemetry <> None) machine workload.Workload.w_name
        variant
    in
    let r = Figures.result (simulate "run" [ cell ]) cell in
    let label =
      Printf.sprintf "%s %s/%s" machine.Machine.m_name r.Experiment.r_workload
        (Experiment.variant_name r.Experiment.r_variant)
    in
    let doc = Metrics.of_results ~label [ r ] in
    print_render doc;
    print_newline ();
    (match telemetry with
    | Some dir ->
        let module Telemetry = Memhog_sim.Telemetry in
        let tl = r.Experiment.r_telemetry in
        List.iter
          (fun name ->
            Format.printf "  %-20s |%s|@." name (Telemetry.sparkline tl name))
          (Telemetry.series_names tl);
        Trace_export.write_telemetry tl ~dir;
        Format.printf
          "telemetry written to %s (openmetrics.txt, series.csv, \
           alerts.csv); replay with: memhog top %s@."
          dir dir
    | None -> ());
    (match csv with
    | Some path ->
        Trace_export.write_series_csv r.Experiment.r_telemetry ~path;
        Format.printf "series written to %s@." path
    | None -> ());
    (match trace with
    | Some path ->
        Trace_export.write_chrome_json r.Experiment.r_trace ~path;
        print_string (Trace_export.summary r.Experiment.r_trace);
        Format.printf "trace written to %s@." path
    | None -> ());
    write_metrics doc metrics;
    0
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one experiment and print its metrics document as tables (the \
          same tables $(b,memhog report) draws from $(b,--metrics)'s file): \
          execution, faults and the paging daemon, service times, release \
          accuracy, the run-time layer, per-directive-site efficacy and the \
          wasted-work taxonomy from the page-lifecycle ledger, plus every \
          optional layer the run enabled.")
    Term.(
      const run $ machine_term $ workload_term $ variant $ interactive
      $ iterations $ conservative $ telemetry $ csv $ trace $ metrics_arg
      $ chaos $ serve_rate $ tiers)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let sleeps =
    Arg.(
      value
      & opt
          (distinct_list (seconds_conv ~positive:false))
          [ 0.0; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0 ]
      & info [ "sleeps" ] ~docv:"S,S,..."
          ~doc:"Sleep times (seconds) to sweep.")
  in
  let run machine workload sleeps jobs =
    let e =
      Figures.fig10a ~workload:workload.Workload.w_name ~sleeps_s:sleeps machine
    in
    print_string (e.Figures.render (simulate "sweep" ~jobs e.Figures.cells));
    0
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Interactive response vs sleep time for one benchmark across all \
          four variants (Figures 1/10a for any workload).")
    Term.(const run $ machine_term $ workload_term $ sleeps $ jobs_term)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let rates =
    Arg.(
      value
      & opt (distinct_list rate_conv) Serve.default_rates
      & info [ "rates" ] ~docv:"RPS,RPS,..."
          ~doc:"Offered loads (requests/sec) to sweep.")
  in
  let variants =
    Arg.(
      value
      & opt (distinct_list variant_conv) Serve.default_variants
      & info [ "variants" ] ~docv:"V,V,..."
          ~doc:"Hog variants to co-run (default: O,B — the bookends).")
  in
  let hog =
    Arg.(
      value
      & opt workload_conv (Workload.find Serve.default_hog)
      & info [ "hog"; "w" ] ~docv:"WORKLOAD"
          ~doc:"The out-of-core hog co-running with the server.")
  in
  let slo =
    Arg.(
      value
      & opt (seconds_conv ~positive:true) 0.03
      & info [ "slo" ] ~docv:"S"
          ~doc:"Per-request response-time target, in seconds.")
  in
  let duration =
    Arg.(
      value
      & opt (seconds_conv ~positive:true) 20.0
      & info [ "duration" ] ~docv:"S"
          ~doc:"Arrival-window length, in simulated seconds.")
  in
  let chaos = chaos_arg ~doc:"Apply this fault-injection plan to every cell." in
  let trace =
    Arg.(
      value
      & opt (some out_path_conv) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the slowest sampled request's critical path (request \
             slice, additive blame components, disk/transit sub-intervals) \
             as Chrome trace-event JSON, openable in Perfetto.")
  in
  let run machine rates variants hog slo duration chaos jobs metrics trace =
    let cells, read =
      Serve.plan ~machine ~workload:hog.Workload.w_name ~rates ~variants
        ~slo:(Time_ns.of_sec_f slo)
        ~duration:(Time_ns.of_sec_f duration)
        ?chaos ()
    in
    let t = read (simulate "serve" ~jobs ~log:prerr_endline cells) in
    let doc = Serve.metrics t in
    print_render doc;
    print_newline ();
    print_string (Serve.tail t);
    write_metrics doc metrics;
    (match trace with
    | Some path -> (
        match Serve.slowest t with
        | Some sp ->
            Trace_export.write_blame_span sp ~path;
            Format.printf "slowest-request trace written to %s@." path
        | None -> Format.eprintf "memhog serve: no requests recorded@.")
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Sweep the open-loop KVSERVE server over offered load x hog \
          variant and print the grid's metrics document as tables: tail \
          latency (p50/p99/p999, measured from arrival) and SLO attainment, \
          each sampled request's response time decomposed into additive \
          critical-path components (queue wait, index/value fault stalls, \
          CPU wait, compute) by percentile band, prefetch-race and \
          demand-disk attribution — then the p999 and SLO pivot over \
          offered load, the serving analogue of the paper's interactivity \
          figures.")
    Term.(
      const run $ machine_term $ rates $ variants $ hog $ slo $ duration $ chaos
      $ jobs_term $ metrics_arg $ trace)

(* ------------------------------------------------------------------ *)
(* tiers                                                               *)
(* ------------------------------------------------------------------ *)

let tiers_cmd =
  let rate =
    Arg.(
      value
      & opt (some rate_conv) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Offered load of the partition serving cell (default: the \
             machine's at-the-knee load).")
  in
  let run machine rate jobs metrics =
    let rate =
      match rate with
      | Some r -> r
      | None ->
          if machine.Machine.m_name = Machine.quick.Machine.m_name then 1600.0
          else 3200.0
    in
    let cells, read = Tier_exp.plan ~machine ~rate () in
    let t = read (simulate "tiers" ~jobs ~log:prerr_endline cells) in
    let doc = Tier_exp.metrics t in
    print_render doc;
    write_metrics doc metrics;
    match Tier_exp.check t with
    | () -> 0
    | exception Failure msg ->
        Format.eprintf "memhog tiers: %s@." msg;
        1
  in
  Cmd.v
    (Cmd.info "tiers"
       ~doc:
         "Run the tiered-backing-store experiment: a backend-mix matrix \
          (swap / far / zram / far+zram) plus a serving cell whose \
          far-memory tier is hard-partitioned mid-window — demotions must \
          fail over to the durable swap copy, in-flight reads must be \
          rescued, the circuit breaker must cycle, and post-window SLO \
          attainment must recover.")
    Term.(const run $ machine_term $ rate $ jobs_term $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* paper                                                               *)
(* ------------------------------------------------------------------ *)

let paper_cmd =
  let ids =
    List.map
      (fun e -> (e.Figures.id, e.Figures.id))
      (Figures.experiments Machine.paper)
  in
  let selected =
    Arg.(
      value
      & pos_all (enum ids) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("Experiments to print, in order (default: all): "
            ^ doc_alts_enum ids ^ "."))
  in
  let chaos =
    chaos_arg ~doc:"Inject this fault plan into every Figure 7 matrix cell."
  in
  let trace =
    Arg.(
      value
      & opt (some dir) None
      & info [ "trace" ] ~docv:"DIR"
          ~doc:
            "Write each Figure 7 matrix cell's event trace into $(docv) as \
             Chrome trace_event JSON, one $(b,WORKLOAD-VARIANT.trace.json) \
             per cell.")
  in
  let run machine jobs metrics chaos trace selected =
    let t0 = Unix.gettimeofday () in
    let log msg =
      Printf.eprintf "  [%7.1fs] %s\n%!" (Unix.gettimeofday () -. t0) msg
    in
    let traced = trace <> None in
    let registry = Figures.experiments ?chaos ~traced machine in
    let to_run =
      if selected = [] then registry
      else
        List.map
          (fun id -> List.find (fun e -> e.Figures.id = id) registry)
          selected
    in
    let mcells, read_matrix = Figures.matrix ~machine ?chaos ~traced () in
    let cells =
      List.concat_map (fun e -> e.Figures.cells) to_run
      @ if metrics = None then [] else mcells
    in
    log (Printf.sprintf "machine: %s | jobs: %d" machine.Machine.m_name jobs);
    let l = simulate "paper" ~jobs ~log cells in
    let rule = String.make 72 '=' in
    List.iter
      (fun e ->
        Printf.printf "\n%s\n%s\n%s\n%s\n%!" rule e.Figures.id rule
          (e.Figures.render l))
      to_run;
    Option.iter (fun dir -> Figures.write_traces ~log ~dir l) trace;
    if metrics <> None then
      write_metrics (Metrics.of_matrix (read_matrix l)) metrics;
    log "done";
    0
  in
  Cmd.v
    (Cmd.info "paper"
       ~doc:
         "Print the paper's evaluation: Tables 1-3, Figures 1 and 7-10, the \
          ablations and the extensions.  The selected experiments' cells \
          form one plan, and each distinct simulation runs once, whichever \
          experiments read it.  Nothing prints until every cell has \
          finished; a cell that fails its check ends the run with no table \
          printed.  $(b,--metrics) writes the Figure 7 matrix's metrics \
          document, simulating the matrix if no selected experiment reads \
          it; $(b,--chaos) and $(b,--trace) reach the matrix cells only.")
    Term.(
      const run $ machine_term $ jobs_term $ metrics_arg $ chaos $ trace
      $ selected)

(* ------------------------------------------------------------------ *)
(* report / compare                                                    *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Metrics JSON files to render.")
  in
  let run files =
    let rc = ref 0 in
    List.iter
      (fun path ->
        match Metrics_io.load_file ~path with
        | Error e ->
            Format.eprintf "memhog report: %s@." e;
            rc := 1
        | Ok j -> (
            match Metrics_io.render j with
            | Ok text -> print_string text
            | Error e ->
                Format.eprintf "memhog report: %s: %s@." path e;
                rc := 1))
      files;
    !rc
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render metrics JSON files (written by a verb's $(b,--metrics)) as \
          human-readable tables.")
    Term.(const run $ files)

let compare_cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline metrics JSON file.")
  in
  let current =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CURRENT" ~doc:"Current metrics JSON file.")
  in
  let tolerance =
    Arg.(
      value
      & opt
          (checked ~expected:"a finite percentage, at least 0"
             (fun f -> Float.is_finite f && f >= 0.0)
             Arg.float)
          0.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Allowed relative drift per numeric field, in percent.  0 \
             (default) demands byte-identical numbers — the right setting \
             for deterministic same-seed runs.")
  in
  let run baseline current tolerance =
    match (Metrics_io.load_file ~path:baseline, Metrics_io.load_file ~path:current) with
    | Error e, _ | _, Error e ->
        Format.eprintf "memhog compare: %s@." e;
        2
    | Ok b, Ok c -> (
        match Metrics_io.compare_json ~tolerance b c with
        | [] ->
            Format.printf "metrics match (%s vs %s, tolerance %g%%)@." baseline
              current tolerance;
            0
        | diffs ->
            Format.printf "@[<v>%d metric(s) drifted beyond %g%% (%s vs %s):@,%a@]@."
              (List.length diffs) tolerance baseline current
              Metrics_io.pp_diffs diffs;
            1)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two metrics JSON files field by field; exit non-zero when \
          any number drifts beyond the tolerance.  $(b,memhog gate) runs \
          the same comparison at tolerance 0 against the committed \
          baselines.")
    Term.(const run $ baseline $ current $ tolerance)

(* ------------------------------------------------------------------ *)
(* top — replay a telemetry dump as a live terminal dashboard          *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let module Telemetry = Memhog_sim.Telemetry in
  (* series.csv rows ([series,time_ns,value]) grouped by name in
     first-appearance order; each group's samples stay in file (= time)
     order. *)
  let read_series path =
    let order = ref [] and index = Hashtbl.create 16 in
    In_channel.with_open_bin path (fun ic ->
        let rec loop first =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
              (if not first then
                 match String.split_on_char ',' line with
                 | [ name; time; value ] -> (
                     match (int_of_string_opt time, float_of_string_opt value) with
                     | Some t, Some v ->
                         let q =
                           match Hashtbl.find_opt index name with
                           | Some q -> q
                           | None ->
                               let q = Queue.create () in
                               Hashtbl.add index name q;
                               order := name :: !order;
                               q
                         in
                         Queue.add (t, v) q
                     | _ -> ())
                 | _ -> ());
              loop false
        in
        loop true);
    List.rev_map
      (fun name -> (name, List.of_seq (Queue.to_seq (Hashtbl.find index name))))
      !order
  in
  (* alerts.csv rows ([time_ns,rule,event,value]), chronological. *)
  let read_alerts path =
    if not (Sys.file_exists path) then []
    else
      In_channel.with_open_bin path (fun ic ->
          let rec loop first acc =
            match In_channel.input_line ic with
            | None -> List.rev acc
            | Some line ->
                let acc =
                  if first then acc
                  else
                    match String.split_on_char ',' line with
                    | [ time; rule; event; value ] -> (
                        match
                          (int_of_string_opt time, float_of_string_opt value)
                        with
                        | Some t, Some v -> (t, rule, event = "fire", v) :: acc
                        | _ -> acc)
                    | _ -> acc
                in
                loop false acc
          in
          loop true [])
  in
  let render_frame ~width ~now series alerts =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf "memhog top — t = %s\n\n" (Time_ns.to_string now));
    List.iter
      (fun (name, samples) ->
        let visible = List.filter (fun (t, _) -> t <= now) samples in
        let last =
          match List.rev visible with (_, v) :: _ -> v | [] -> 0.0
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-20s %12.6g  %s\n" name last
             (Telemetry.sparkline_of ~width visible)))
      series;
    let active =
      List.fold_left
        (fun acc (t, rule, fired, v) ->
          if t > now then acc
          else
            let acc = List.filter (fun (r, _, _) -> r <> rule) acc in
            if fired then (rule, t, v) :: acc else acc)
        [] alerts
    in
    Buffer.add_string buf "\n  alerts:\n";
    if active = [] then Buffer.add_string buf "    (none active)\n"
    else
      List.iter
        (fun (rule, t, v) ->
          Buffer.add_string buf
            (Printf.sprintf "    FIRING %-24s since %s (value %.6g)\n" rule
               (Time_ns.to_string t) v))
        (List.rev active);
    Buffer.contents buf
  in
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:"Telemetry directory written by $(b,memhog run --telemetry).")
  in
  let speed =
    Arg.(
      value
      & opt
          (checked ~expected:"a playback rate, at least 0"
             (fun f -> f >= 0.0)
             Arg.float)
          4.0
      & info [ "speed" ] ~docv:"X"
          ~doc:
            "Playback rate: $(docv) seconds of simulated time per wall \
             second.  0 renders the final frame only (no animation, no \
             escape codes) — the scriptable mode.")
  in
  let width =
    Arg.(
      value
      & opt
          (checked ~expected:"at least 1 column" (fun n -> n >= 1) Arg.int)
          60
      & info [ "width" ] ~docv:"COLS" ~doc:"Sparkline width in columns.")
  in
  let run dir speed width =
    match
      ( read_series (Filename.concat dir "series.csv"),
        read_alerts (Filename.concat dir "alerts.csv") )
    with
    | exception Sys_error msg ->
        Format.eprintf "memhog top: %s@." msg;
        1
    | [], _ ->
        Format.eprintf "memhog top: no samples in %s@."
          (Filename.concat dir "series.csv");
        1
    | series, alerts ->
        let t_end =
          List.fold_left
            (fun acc (_, samples) ->
              List.fold_left (fun acc (t, _) -> max acc t) acc samples)
            0 series
        in
        if speed = 0.0 then
          print_string (render_frame ~width ~now:t_end series alerts)
        else begin
          let frames = 120 in
          let dt = max 1 (t_end / frames) in
          (* Clear once, then repaint from the home position each frame —
             flicker-free on any VT100-compatible terminal. *)
          print_string "\027[2J";
          let rec play now =
            let now = min now t_end in
            print_string "\027[H";
            print_string (render_frame ~width ~now series alerts);
            print_string "\027[J";
            flush stdout;
            if now < t_end then begin
              Unix.sleepf (Time_ns.to_sec_f dt /. speed);
              play (now + dt)
            end
          in
          play dt;
          print_newline ()
        end;
        0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Replay a telemetry dump (written by $(b,memhog run --telemetry \
          DIR)) as a live terminal dashboard: one sparkline per series and \
          an active-alert panel, animated over simulated time.")
    Term.(const run $ dir $ speed $ width)

(* ------------------------------------------------------------------ *)
(* gate                                                                *)
(* ------------------------------------------------------------------ *)

let gate_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:
            "Registry entries to run, in order (default: all of them — \
             smoke, chaos, serve, tiers, obs, perf, ablations).")
  in
  let update =
    Arg.(
      value & flag
      & info [ "update" ]
          ~doc:
            "Write each entry's document over its committed baseline \
             instead of comparing: the deliberate regeneration after an \
             intended behaviour change.")
  in
  let write path contents =
    Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  in
  (* Every entry simulates its cells at 2 jobs; the documents do not depend
     on the job count.  The runner's checks and the entry's physics checks
     raise Failure; a baseline that cannot be read or does not match is
     reported the same way, as an [Error] to print. *)
  let verdict ~update (e : Gate.entry) =
    match e.Gate.read (Figures.simulate ~jobs:2 e.Gate.cells) with
    | exception Failure msg -> Error msg
    | o -> (
        List.iter (fun (file, data) -> write file data) o.Gate.artifacts;
        let path = Filename.concat "bench" e.Gate.baseline in
        if update then Ok (write path (Metrics_io.to_string o.Gate.doc))
        else
          match Metrics_io.read_file ~path with
          | Error msg -> Error msg
          | Ok baseline -> (
              match Gate.compare ~baseline o.Gate.doc with
              | [] -> Ok ()
              | diffs ->
                  Error
                    (Format.asprintf "@[<v>%d number(s) differ from %s:@,%a@]"
                       (List.length diffs) path Metrics_io.pp_diffs diffs)))
  in
  let run names update =
    match Gate.select names with
    | Error msg ->
        Format.eprintf "memhog gate: %s@." msg;
        2
    | Ok entries ->
        let failed =
          List.filter
            (fun (e : Gate.entry) ->
              let t0 = Unix.gettimeofday () in
              let v = verdict ~update e in
              let wall = Unix.gettimeofday () -. t0 in
              (match v with
              | Ok () ->
                  Format.printf "gate %s: %s (%.1f s)@." e.Gate.name
                    (if update then "baseline written" else "ok")
                    wall
              | Error why ->
                  Format.printf "gate %s: FAILED (%.1f s)@.%s@." e.Gate.name
                    wall why);
              Result.is_error v)
            entries
        in
        if failed = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "Run the tolerance-0 regression gates from the repository root: \
          each registry entry re-simulates its cells on the quick machine, \
          fails on a broken physics check, and compares its metrics \
          document with the committed baseline in $(b,bench/) (number \
          lexemes must match exactly).  Informational artifacts \
          (BLAME_slowest.trace.json, OBS_openmetrics.txt) are written to \
          the current directory.  Every selected entry runs; the exit \
          status is non-zero if any failed.")
    Term.(const run $ names $ update)

let () =
  let doc =
    "compiler-inserted releases for out-of-core applications (OSDI 2000 \
     reproduction)"
  in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "memhog" ~version:"1.0.0" ~doc)
          [
            list_cmd; machine_cmd; paper_cmd; compile_cmd; run_cmd; sweep_cmd;
            serve_cmd; tiers_cmd; report_cmd; compare_cmd;
            gate_cmd; top_cmd;
          ]))

(* Tests for the experiment-harness core: report formatting, machine
   descriptions, the figure generators' static parts, and the runner's
   per-cell checks. *)

module Report = Memhog_core.Report
module Machine = Memhog_core.Machine
module Figures = Memhog_core.Figures
module E = Memhog_core.Experiment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let render_table ?title ~header ~rows () =
  Format.asprintf "@[<v>%t@]" (fun fmt -> Report.table ?title ~header ~rows fmt ())

let test_table_layout () =
  let s =
    render_table ~title:"T" ~header:[ "name"; "value" ]
      ~rows:[ [ "a"; "1" ]; [ "longer"; "22" ] ]
      ()
  in
  check_bool "title" true (contains s "T");
  check_bool "header" true (contains s "name");
  (* all rows padded to the same width *)
  let lines = String.split_on_char '\n' s in
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 then Some (String.length l) else None)
      (List.tl lines)
  in
  check_bool "aligned" true (List.length (List.sort_uniq compare widths) = 1)

let test_table_rejects_ragged_rows () =
  Alcotest.check_raises "row width" (Invalid_argument "Report.table: row width mismatch")
    (fun () -> ignore (render_table ~header:[ "a"; "b" ] ~rows:[ [ "1" ] ] ()))

let test_formatters () =
  check_str "count separators" "1,234,567" (Report.count 1234567);
  check_str "small count" "999" (Report.count 999);
  check_str "zero" "0" (Report.count 0);
  check_str "boundary 4 digits" "1,000" (Report.count 1000);
  (* the sign must not get its own separator: -123456 is "-123,456",
     never "-,123,456" *)
  check_str "negative grouping" "-123,456" (Report.count (-123456));
  check_str "negative 3 digits" "-999" (Report.count (-999));
  check_str "negative boundary" "-1,000" (Report.count (-1000));
  check_str "ratio" "1.37" (Report.ratio 1.3749);
  check_str "pct" "42.3%" (Report.pct 0.4231);
  check_str "ns opt none" "-" (Report.ns_opt None);
  check_str "ns opt some" "2.00ms" (Report.ns_opt (Some (Memhog_sim.Time_ns.ms 2)))

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let test_paper_machine () =
  let m = Machine.paper in
  check_int "75 MB of memory" (75 * 1024 * 1024) (Machine.mem_bytes m);
  let latency = Machine.fault_latency_ns m in
  (* seek + rotation + transfer of one 16 KB page: around 12 ms *)
  check_bool "latency plausible" true
    (latency > 10_000_000 && latency < 15_000_000);
  let target = Machine.compiler_target m in
  check_int "target sees all frames" 4800
    target.Memhog_compiler.Analysis.memory_pages

let test_quick_machine_scaled () =
  let q = Machine.quick in
  check_bool "smaller memory" true (Machine.mem_bytes q < Machine.mem_bytes Machine.paper);
  check_bool "keeps prefetch headroom" true
    (q.Machine.m_config.Memhog_vm.Config.desfree >= 96)

(* ------------------------------------------------------------------ *)
(* Figures (static parts only; the dynamic ones run in bench)          *)
(* ------------------------------------------------------------------ *)

let test_table1_renders () =
  let s = Figures.table1 () in
  check_bool "mentions the machine" true (contains s "SGI Origin 200");
  check_bool "mentions disks" true (contains s "Cheetah")

let test_table2_renders () =
  let s = Figures.table2 () in
  List.iter
    (fun name -> check_bool name true (contains s name))
    [ "EMBAR"; "MATVEC"; "BUK"; "CGM"; "MGRID"; "FFTPDE" ];
  check_bool "sizes in MB" true (contains s "MB")

(* ------------------------------------------------------------------ *)
(* Experiment plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let test_variant_mapping () =
  Alcotest.(check (list string))
    "names" [ "O"; "P"; "R"; "B" ]
    (List.map E.variant_name E.all_variants)

let test_breakdown_total () =
  let b =
    { E.b_user = 10; b_system = 20; b_io_stall = 30; b_resource_stall = 40 }
  in
  check_int "sum" 100 (E.breakdown_total b)

let test_run_produces_telemetry () =
  let wl = Memhog_workloads.Workload.find "EMBAR" in
  let r =
    E.run (E.setup ~machine:Machine.quick ~workload:wl ~variant:E.O ~iterations:1 ())
  in
  let tl = r.E.r_telemetry in
  let module Telemetry = Memhog_sim.Telemetry in
  check_bool "free series sampled" true
    (match Telemetry.summary_of tl "free" with
    | Some s -> s.Telemetry.ts_samples > 10
    | None -> false);
  check_bool "rss series sampled" true
    (Telemetry.summary_of tl "app-rss" <> None);
  check_bool "no interactive series without the task" true
    (Telemetry.summary_of tl "inter-rss" = None);
  check_bool "trace-drop counter registered" true
    (Telemetry.summary_of tl "trace-dropped" <> None);
  check_bool "full probe set off by default" true
    (Telemetry.summary_of tl "hard-faults" = None)

(* Out-of-range numbers must fail in [setup], before anything runs: each
   would otherwise run zero passes or die inside the engine mid-run. *)
let test_setup_rejects_out_of_range () =
  let wl = Memhog_workloads.Workload.find "EMBAR" in
  let batch ?iterations ?interactive_sleep () =
    E.setup ?iterations ?interactive_sleep ~workload:wl ~variant:E.R ()
  in
  let served ?slo ?duration rate_rps =
    let cfg = E.serve_cfg ~machine:Machine.quick ?slo ?duration ~rate_rps () in
    E.setup ~serve:cfg ~workload:wl ~variant:E.B ()
  in
  List.iter
    (fun (name, build) ->
      check_bool name true
        (match build () with
        | (_ : E.setup) -> false
        | exception Invalid_argument _ -> true))
    [
      ("zero iterations", fun () -> batch ~iterations:0 ());
      ("negative iterations", fun () -> batch ~iterations:(-3) ());
      ("negative interactive sleep", fun () -> batch ~interactive_sleep:(-1) ());
      ("zero rate", fun () -> served 0.0);
      ("negative rate", fun () -> served (-1.0));
      ("nan rate", fun () -> served Float.nan);
      ("negative duration", fun () -> served ~duration:(-1) 100.0);
      ("zero SLO", fun () -> served ~slo:0 100.0);
    ];
  (* the boundary values stay legal *)
  ignore (batch ~iterations:1 ~interactive_sleep:0 ());
  ignore (served ~slo:1 ~duration:1 0.5)

(* A crashed process must fail the cell, naming the process, instead of
   yielding numbers from a partial run. *)
let test_check_crashes () =
  let module Engine = Memhog_sim.Engine in
  let engine = Engine.create () in
  ignore
    (Engine.spawn engine ~name:"steady" (fun () ->
         Engine.delay ~cat:Memhog_sim.Account.User 10));
  E.check_crashes ~what:"healthy" engine;
  ignore (Engine.spawn engine ~name:"boom" (fun () -> failwith "injected"));
  Engine.run engine;
  match E.check_crashes ~what:"cell" engine with
  | () -> Alcotest.fail "a crashed process passed the check"
  | exception Failure msg ->
      check_bool ("names the process: " ^ msg) true
        (contains msg "cell" && contains msg "boom" && contains msg "injected")

(* The runner's oracle: a co-run cell whose OS invariants fail, or whose
   server left an arrived request unserved, fails naming the cell instead
   of handing its numbers to a table. *)
let test_check_result () =
  let module Server = Memhog_exec.Server in
  let machine = Machine.quick in
  let batch = Figures.corun machine "EMBAR" E.O in
  let served =
    Figures.corun
      ~serve:
        (E.serve_cfg ~machine ~duration:(Memhog_sim.Time_ns.sec 1)
           ~rate_rps:400.0 ())
      machine "EMBAR" E.B
  in
  let l = Figures.simulate ~jobs:2 [ batch; served ] in
  let batch = Figures.result l batch and served = Figures.result l served in
  E.check_result ~what:"EMBAR/O" batch;
  E.check_result ~what:"EMBAR/B serve" served;
  let fails what r =
    match E.check_result ~what r with
    | () -> Alcotest.failf "%s passed the check" what
    | exception Failure msg ->
        check_bool ("names the cell: " ^ msg) true (contains msg what)
  in
  fails "EMBAR/O" { batch with E.r_invariants_ok = false };
  let sv = Option.get served.E.r_serving in
  fails "EMBAR/B serve"
    {
      served with
      E.r_serving =
        Some { sv with Server.sm_completed = sv.Server.sm_completed - 1 };
    }

let test_run_length () =
  let sec = Memhog_sim.Time_ns.sec in
  check_int "floor" (sec 45) (E.run_length (sec 2));
  check_int "8 sleeps + 20 s" (sec 260) (E.run_length (sec 30))

let () =
  Alcotest.run "memhog_core"
    [
      ( "report",
        [
          Alcotest.test_case "table layout" `Quick test_table_layout;
          Alcotest.test_case "ragged rows" `Quick test_table_rejects_ragged_rows;
          Alcotest.test_case "formatters" `Quick test_formatters;
        ] );
      ( "machine",
        [
          Alcotest.test_case "paper machine" `Quick test_paper_machine;
          Alcotest.test_case "quick machine" `Quick test_quick_machine_scaled;
        ] );
      ( "figures",
        [
          Alcotest.test_case "table1" `Quick test_table1_renders;
          Alcotest.test_case "table2" `Quick test_table2_renders;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "variants" `Quick test_variant_mapping;
          Alcotest.test_case "breakdown" `Quick test_breakdown_total;
          Alcotest.test_case "telemetry" `Quick test_run_produces_telemetry;
          Alcotest.test_case "setup rejects out-of-range numbers" `Quick
            test_setup_rejects_out_of_range;
          Alcotest.test_case "crash check names the process" `Quick
            test_check_crashes;
          Alcotest.test_case "result check names the cell" `Quick
            test_check_result;
          Alcotest.test_case "run length" `Quick test_run_length;
        ] );
    ]

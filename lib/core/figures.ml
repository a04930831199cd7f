open Memhog_sim
module E = Experiment
module VS = Memhog_vm.Vm_stats
module Server = Memhog_exec.Server
module Workload = Memhog_workloads.Workload
module Compile = Memhog_compiler.Compile
module Pir = Memhog_compiler.Pir
module Analysis = Memhog_compiler.Analysis

(* ------------------------------------------------------------------ *)
(* Cells and the runner                                                *)
(* ------------------------------------------------------------------ *)

type corun = {
  c_machine : Machine.t;
  c_workload : string;
  c_variant : E.variant;
  c_sleep : Time_ns.t option;
  c_conservative : bool;
  c_reactive : bool;
  c_release_target : int option;
  c_chaos : string option;
  c_traced : bool;
  c_serve : Server.cfg option;
  c_tiers : string option;
  c_telemetry : bool;
  c_governor : Memhog_runtime.Runtime.governor_cfg option;
  c_ledger : bool;
}

type cell =
  | Corun of corun
  | Alone of Machine.t * Time_ns.t
  | Two_hogs of Machine.t * Pir.variant

let corun ?sleep ?(conservative = false) ?(reactive = false) ?release_target
    ?chaos ?(traced = false) ?serve ?tiers ?(telemetry = false) ?governor
    ?(ledger = true) machine workload variant =
  Corun
    {
      c_machine = machine;
      c_workload = workload;
      c_variant = variant;
      c_sleep = sleep;
      c_conservative = conservative;
      c_reactive = reactive;
      c_release_target = release_target;
      c_chaos = chaos;
      c_traced = traced;
      c_serve = serve;
      c_tiers = tiers;
      c_telemetry = telemetry;
      c_governor = governor;
      c_ledger = ledger;
    }

let label = function
  | Corun c ->
      let opt f = Option.fold ~none:[] ~some:(fun x -> [ f x ]) in
      let flag b s = if b then [ s ] else [] in
      String.concat " "
        ((Printf.sprintf "%s/%s" c.c_workload (E.variant_name c.c_variant)
         :: opt (fun s -> "sleep " ^ Time_ns.to_string s) c.c_sleep)
        @ flag c.c_conservative "conservative"
        @ flag c.c_reactive "reactive"
        @ opt (Printf.sprintf "target %d") c.c_release_target
        @ opt (Printf.sprintf "chaos %s") c.c_chaos
        @ flag c.c_traced "traced"
        @ opt
            (fun sv -> Printf.sprintf "serve %g rps" sv.Server.sv_rate_rps)
            c.c_serve
        @ opt (Printf.sprintf "tiers %s") c.c_tiers
        @ flag c.c_telemetry "telemetry"
        @ flag (c.c_governor <> None) "governor"
        @ flag (not c.c_ledger) "ledger off"
        @ [ "on " ^ c.c_machine.Machine.m_name ])
  | Alone (machine, sleep) ->
      Printf.sprintf "interactive alone sleep %s on %s" (Time_ns.to_string sleep)
        machine.Machine.m_name
  | Two_hogs (machine, variant) ->
      Printf.sprintf "MATVEC + EMBAR, both %s, on %s"
        (Pir.variant_letter variant) machine.Machine.m_name

let distinct cells =
  List.rev
    (List.fold_left
       (fun seen c -> if List.mem c seen then seen else c :: seen)
       [] cells)

type outcome =
  | Result of E.result
  | Alone_summary of E.interactive_summary
  | Pair of { matvec_done : Time_ns.t; embar_done : Time_ns.t; stolen : int }

type lookup = (cell * outcome) list

(* MATVEC and EMBAR, two passes each, on one OS: the only cell that builds
   its own engine rather than going through [Experiment.run]. *)
let two_hogs machine variant =
  let module Os = Memhog_vm.Os in
  let module App = Memhog_exec.App in
  let cap = Time_ns.sec 14400 in
  let engine = Engine.create ~max_time:cap () in
  let os =
    Os.create ~swap_config:machine.Machine.m_swap
      ~config:machine.Machine.m_config ~engine ()
  in
  let finished = ref 0 in
  let spawn name =
    let wl = Workload.find name in
    let prog_ir, params =
      wl.Workload.w_make
        ~mem_bytes:(Machine.mem_bytes machine)
        ~page_bytes:machine.Machine.m_config.Memhog_vm.Config.page_bytes
    in
    let prog =
      Compile.compile ~target:(Machine.compiler_target machine) ~variant prog_ir
    in
    let app = App.create ~seed:machine.Machine.m_seed ~os ~params prog in
    let done_at = ref 0 in
    ignore
      (Engine.spawn engine ~name:("hog " ^ name) (fun () ->
           App.run app ~iterations:2;
           done_at := Engine.now ();
           incr finished;
           if !finished = 2 then Engine.stop ()));
    done_at
  in
  let matvec = spawn "MATVEC" and embar = spawn "EMBAR" in
  Engine.run engine;
  let what = "two hogs, both " ^ Pir.variant_letter variant in
  E.check_crashes ~what engine;
  if !finished < 2 then
    failwith
      (Printf.sprintf "%s: %d of 2 hogs finished before the %s cap" what
         !finished (Time_ns.to_string cap));
  Pair
    {
      matvec_done = !matvec;
      embar_done = !embar;
      stolen = (Os.global_stats os).VS.daemon_pages_stolen;
    }

let simulate_cell cell =
  match cell with
  | Corun c ->
      let r =
        E.run
          (E.setup ~machine:c.c_machine ?interactive_sleep:c.c_sleep
             ~min_sim_time:(Option.fold ~none:0 ~some:E.run_length c.c_sleep)
             ~conservative:c.c_conservative ~reactive:c.c_reactive
             ?release_target:c.c_release_target
             ?trace:(if c.c_traced then Some (Trace.create ()) else None)
             ?chaos:c.c_chaos ?governor:c.c_governor ~ledger_on:c.c_ledger
             ?serve:c.c_serve ?tiers:c.c_tiers ~telemetry:c.c_telemetry
             ~workload:(Workload.find c.c_workload)
             ~variant:c.c_variant ())
      in
      E.check_result ~what:(label cell) r;
      Result r
  | Alone (machine, sleep) ->
      Alone_summary
        (E.run_interactive_alone ~machine ~sleep ~duration:(E.run_length sleep)
           ())
  | Two_hogs (machine, variant) -> two_hogs machine variant

let no_log _ = ()

(* Every cell owns its engine, OS and RNG, so it is deterministic on its
   own and [jobs] moves only the wall time.  Cells run on worker domains;
   one lock keeps the caller's log lines whole.  This is the one place a
   grid of simulations runs, so it is the one place each co-run result is
   checked ([simulate_cell]). *)
let simulate ?(jobs = 1) ?(log = no_log) cells =
  let cells = distinct cells in
  let n = List.length cells in
  let lock = Mutex.create () in
  Pool.map ~jobs
    (fun (i, c) ->
      Mutex.protect lock (fun () ->
          log (Printf.sprintf "cell %d/%d: %s" (i + 1) n (label c)));
      (c, simulate_cell c))
    (List.mapi (fun i c -> (i, c)) cells)

let find (l : lookup) c =
  match List.assoc_opt c l with
  | Some o -> o
  | None -> invalid_arg ("Figures: cell not in the plan: " ^ label c)

let result l c =
  match find l c with Result r -> r | _ -> invalid_arg "Figures.result"

let alone_summary l c =
  match find l c with
  | Alone_summary a -> a
  | _ -> invalid_arg "Figures.alone_summary"

let write_traces ?(log = no_log) ~dir (l : lookup) =
  List.iter
    (function
      | Corun ({ c_traced = true; _ } as c), Result r ->
          let file =
            Filename.concat dir
              (Printf.sprintf "%s-%s.trace.json" c.c_workload
                 (E.variant_name c.c_variant))
          in
          Trace_export.write_chrome_json r.E.r_trace ~path:file;
          log (Printf.sprintf "wrote %s" file)
      | _ -> ())
    l

type experiment = { id : string; cells : cell list; render : lookup -> string }

(* ------------------------------------------------------------------ *)
(* The Figure 7 matrix                                                 *)
(* ------------------------------------------------------------------ *)

type matrix = {
  mx_machine : Machine.t;
  mx_sleep : Time_ns.t;
  mx_results : (string * (E.variant * E.result) list) list;
  mx_alone : E.interactive_summary;
}

let matrix_results m =
  List.concat_map (fun (_, per_variant) -> List.map snd per_variant) m.mx_results

(* Figures 7-10b/c all co-run the interactive task at a 5 s sleep. *)
let matrix ~machine ?(workloads = Workload.names) ?chaos ?(traced = false) () =
  let sleep = Time_ns.sec 5 in
  let cell w v = corun ~sleep ?chaos ~traced machine w v in
  let alone = Alone (machine, sleep) in
  ( List.concat_map (fun w -> List.map (cell w) E.all_variants) workloads
    @ [ alone ],
    fun l ->
      {
        mx_machine = machine;
        mx_sleep = sleep;
        mx_results =
          List.map
            (fun w ->
              (w, List.map (fun v -> (v, result l (cell w v))) E.all_variants))
            workloads;
        mx_alone = alone_summary l alone;
      } )

let render f = Format.asprintf "@[<v>%t@]" f

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 ?(machine = Machine.paper) () =
  render (fun fmt ->
      Format.fprintf fmt "Table 1: hardware characteristics@,%a@," Machine.pp
        machine)

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 ?(machine = Machine.paper) () =
  let page_bytes = machine.Machine.m_config.Memhog_vm.Config.page_bytes in
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let bytes =
          Workload.data_set_bytes w ~mem_bytes:(Machine.mem_bytes machine)
            ~page_bytes
        in
        let prog, _ =
          w.Workload.w_make ~mem_bytes:(Machine.mem_bytes machine) ~page_bytes
        in
        let ann = Compile.analyze ~target:(Machine.compiler_target machine) prog in
        let s = ann.Analysis.ap_stats in
        [
          w.Workload.w_name;
          w.Workload.w_description;
          Printf.sprintf "%d MB" (bytes / (1024 * 1024));
          w.Workload.w_traits;
          string_of_int s.Analysis.st_direct_refs;
          string_of_int s.Analysis.st_indirect_refs;
          string_of_int s.Analysis.st_unknown_bound_loops;
        ])
      Workload.all
  in
  render (fun fmt ->
      Report.table ~title:"Table 2: benchmark characteristics"
        ~header:
          [ "name"; "description"; "data set"; "traits"; "direct"; "indirect"; "unk-loops" ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Response-time sweeps (Figures 1 and 10a)                            *)
(* ------------------------------------------------------------------ *)

let default_sleeps = [ 0.0; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 30.0 ]

let interactive_response (r : E.result) =
  match r.E.r_interactive with
  | Some i -> Report.ns_opt i.E.is_avg_response
  | None -> "-"

(* One row per sleep: the interactive task alone, then next to each of
   [variants] (column header, variant). *)
let response_sweep ~id ~title ~variants ~workload ~sleeps_s machine =
  let alone s = Alone (machine, Time_ns.of_sec_f s) in
  let cell s v = corun ~sleep:(Time_ns.of_sec_f s) machine workload v in
  {
    id;
    cells =
      List.concat_map
        (fun s -> alone s :: List.map (fun (_, v) -> cell s v) variants)
        sleeps_s;
    render =
      (fun l ->
        let row s =
          Printf.sprintf "%.1f" s
          :: Report.ns_opt (alone_summary l (alone s)).E.is_avg_response
          :: List.map (fun (_, v) -> interactive_response (result l (cell s v)))
               variants
        in
        render (fun fmt ->
            Report.table ~title
              ~header:("sleep (s)" :: "alone" :: List.map fst variants)
              ~rows:(List.map row sleeps_s) fmt ()));
  }

let fig1 machine =
  response_sweep ~id:"fig1"
    ~title:
      "Figure 1: interactive response time vs sleep time (MATVEC 400MB \
       co-running)"
    ~variants:[ ("w/ original", E.O); ("w/ prefetching", E.P) ]
    ~workload:"MATVEC" ~sleeps_s:default_sleeps machine

let fig10a ?(workload = "MATVEC") ?(sleeps_s = default_sleeps) machine =
  response_sweep ~id:"fig10a"
    ~title:
      (Printf.sprintf "Figure 10(a): interactive response vs sleep time (%s)"
         workload)
    ~variants:(List.map (fun v -> (E.variant_name v, v)) E.all_variants)
    ~workload ~sleeps_s machine

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let fig7 (m : matrix) =
  render (fun fmt ->
      Format.fprintf fmt
        "Figure 7: execution time of the out-of-core applications, \
         normalized to O@,(per-pass components as fractions of the O total; \
         runs repeat the main@,computation for the interactive task's \
         benefit, so times are divided by@,the pass count)@,";
      List.iter
        (fun (name, per_variant) ->
          let per_iter (r : E.result) x =
            float_of_int x /. float_of_int r.E.r_iterations
          in
          let o_total =
            match List.assoc_opt E.O per_variant with
            | Some r -> per_iter r (E.breakdown_total r.E.r_breakdown)
            | None -> 1.0
          in
          let rows =
            List.map
              (fun (v, (r : E.result)) ->
                let b = r.E.r_breakdown in
                let f x = Report.ratio (per_iter r x /. o_total) in
                [
                  E.variant_name v;
                  f b.E.b_user;
                  f b.E.b_system;
                  f b.E.b_resource_stall;
                  f b.E.b_io_stall;
                  f (E.breakdown_total b);
                  Report.ns (r.E.r_elapsed / r.E.r_iterations);
                  string_of_int r.E.r_iterations;
                ])
              per_variant
          in
          Report.table ~title:name
            ~header:
              [
                "variant"; "user"; "system"; "resource"; "io"; "total";
                "per-pass"; "passes";
              ]
            ~rows fmt ();
          Format.fprintf fmt "@,")
        m.mx_results)

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

let fig8 (m : matrix) =
  let rows =
    List.map
      (fun (name, per_variant) ->
        name
        :: List.map
             (fun v ->
               match List.assoc_opt v per_variant with
               | Some r ->
                   Report.count
                     (r.E.r_app_stats.VS.soft_faults_daemon
                     / max 1 r.E.r_iterations)
               | None -> "-")
             E.all_variants)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Figure 8: soft page faults induced by the paging daemon's \
           invalidations (per pass)"
        ~header:[ "benchmark"; "O"; "P"; "R"; "B" ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let table3 (m : matrix) =
  let rows =
    List.filter_map
      (fun (name, per_variant) ->
        match (List.assoc_opt E.O per_variant, List.assoc_opt E.R per_variant) with
        | Some o, Some r ->
            Some
              [
                name;
                Report.count o.E.r_global.VS.daemon_activations;
                Report.count o.E.r_global.VS.daemon_pages_stolen;
                Report.count r.E.r_global.VS.daemon_activations;
                Report.count r.E.r_global.VS.daemon_pages_stolen;
                Report.count r.E.r_app_stats.VS.freed_by_releaser;
              ]
        | _ -> None)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Table 3: page reclamation activity (original vs \
           prefetch+release)"
        ~header:
          [
            "benchmark";
            "O activations";
            "O stolen";
            "R activations";
            "R stolen";
            "R released";
          ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)
(* ------------------------------------------------------------------ *)

let fig9 (m : matrix) =
  let rows =
    List.concat_map
      (fun (name, per_variant) ->
        List.map
          (fun (v, (r : E.result)) ->
            let s = r.E.r_app_stats in
            let freed_d = s.VS.freed_by_daemon and freed_r = s.VS.freed_by_releaser in
            let total = max 1 (freed_d + freed_r) in
            let frac a b = Report.pct (float_of_int a /. float_of_int (max 1 b)) in
            [
              Printf.sprintf "%s/%s" name (E.variant_name v);
              Report.count freed_d;
              Report.count freed_r;
              frac freed_d total;
              frac s.VS.rescued_daemon freed_d;
              frac s.VS.rescued_releaser freed_r;
            ])
          per_variant)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:"Figure 9: outcomes of freed pages (out-of-core application)"
        ~header:
          [
            "run";
            "freed by daemon";
            "freed by release";
            "daemon share";
            "rescued (daemon)";
            "rescued (release)";
          ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Figures 10b, 10c                                                    *)
(* ------------------------------------------------------------------ *)

let interactive_cell ~alone (r : E.result) f =
  match r.E.r_interactive with Some i -> f i alone | None -> "-"

let fig10b (m : matrix) =
  let alone = m.mx_alone in
  let alone_resp =
    match alone.E.is_avg_response with
    | Some t -> float_of_int t
    | None -> float_of_int alone.E.is_alone_response
  in
  let rows =
    List.map
      (fun (name, per_variant) ->
        name
        :: List.map
             (fun v ->
               match List.assoc_opt v per_variant with
               | Some r ->
                   interactive_cell ~alone r (fun i _ ->
                       match i.E.is_avg_response with
                       | Some t -> Report.ratio (float_of_int t /. alone_resp)
                       | None -> "-")
               | None -> "-")
             E.all_variants)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:
          (Printf.sprintf
             "Figure 10(b): interactive response at %s sleep, normalized to \
              running alone (alone = %s)"
             (Time_ns.to_string m.mx_sleep)
             (Report.ns_opt alone.E.is_avg_response))
        ~header:[ "benchmark"; "O"; "P"; "R"; "B" ]
        ~rows fmt ())

let fig10c (m : matrix) =
  let rows =
    List.map
      (fun (name, per_variant) ->
        name
        :: List.map
             (fun v ->
               match List.assoc_opt v per_variant with
               | Some r ->
                   interactive_cell ~alone:m.mx_alone r (fun i _ ->
                       match i.E.is_avg_hard_faults with
                       | Some f -> Report.f1 f
                       | None -> "-")
               | None -> "-")
             E.all_variants)
      m.mx_results
  in
  render (fun fmt ->
      Report.table
        ~title:
          "Figure 10(c): interactive hard page faults per sweep (64 pages = \
           whole data set)"
        ~header:[ "benchmark"; "O"; "P"; "R"; "B" ]
        ~rows fmt ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* A table with one row per co-run cell, read from that cell's result. *)
let cell_table ~id ~title ~header rows =
  {
    id;
    cells = List.map fst rows;
    render =
      (fun l ->
        render (fun fmt ->
            Report.table ~title ~header
              ~rows:(List.map (fun (c, row) -> row (result l c)) rows)
              fmt ()));
  }

let with_config (machine : Machine.t) suffix f =
  {
    machine with
    Machine.m_config = f machine.Machine.m_config;
    m_name = machine.Machine.m_name ^ suffix;
  }

let run_name w v = Printf.sprintf "%s/%s" w (E.variant_name v)
let per_pass (r : E.result) = Report.ns (r.E.r_elapsed / r.E.r_iterations)

let ablation_batch machine =
  (* FFTPDE under the buffered policy keeps its whole release stream in the
     priority queues (false temporal reuse), so the drain batch size is the
     only thing between the application and the paging daemon. *)
  cell_table ~id:"ablation-batch"
    ~title:
      "Ablation: release batch size (pages drained per buffering decision; \
       paper fixes 100 and never varied it).  FFTPDE B."
    ~header:[ "batch"; "per-pass"; "drains"; "daemon stole"; "interactive" ]
    (List.map
       (fun target ->
         ( corun ~sleep:(Time_ns.sec 5) ~release_target:target machine "FFTPDE"
             E.B,
           fun (r : E.result) ->
             [
               string_of_int target;
               per_pass r;
               Report.count
                 (match r.E.r_runtime with
                 | Some rt -> rt.Memhog_runtime.Runtime.rt_buffer_drains
                 | None -> 0);
               Report.count r.E.r_global.VS.daemon_pages_stolen;
               interactive_response r;
             ] ))
       [ 10; 50; 100; 400; 1600 ])

let ablation_hwbits machine =
  let hw =
    with_config machine " + hardware reference bits" (fun c ->
        { c with Memhog_vm.Config.hw_ref_bits = true })
  in
  cell_table ~id:"ablation-hwbits"
    ~title:
      "Ablation: software-simulated vs hardware reference bits (the paper's \
       section-6 question)"
    ~header:[ "run"; "ref bits"; "elapsed"; "soft faults"; "resource stall" ]
    (List.concat_map
       (fun w ->
         List.concat_map
           (fun v ->
             List.map
               (fun (label, m) ->
                 ( corun m w v,
                   fun (r : E.result) ->
                     [
                       run_name w v;
                       label;
                       Report.ns r.E.r_elapsed;
                       Report.count r.E.r_app_stats.VS.soft_faults;
                       Report.ns r.E.r_breakdown.E.b_resource_stall;
                     ] ))
               [ ("software", machine); ("hardware", hw) ])
           [ E.P; E.R ])
       [ "EMBAR"; "MATVEC" ])

let ablation_conservative machine =
  cell_table ~id:"ablation-conservative"
    ~title:
      "Ablation: aggressive (paper) vs conservative (section 2.3.2) release \
       insertion"
    ~header:[ "run"; "insertion"; "elapsed"; "release reqs"; "rescued" ]
    (List.concat_map
       (fun v ->
         List.map
           (fun (label, conservative) ->
             ( corun ~conservative machine "MATVEC" v,
               fun (r : E.result) ->
                 [
                   run_name "MATVEC" v;
                   label;
                   Report.ns r.E.r_elapsed;
                   Report.count r.E.r_app_stats.VS.releases_requested;
                   Report.count r.E.r_app_stats.VS.rescued_releaser;
                 ] ))
           [ ("aggressive", false); ("conservative", true) ])
       [ E.R; E.B ])

let ablation_rescue machine =
  let no_rescue =
    with_config machine " - rescue disabled" (fun c ->
        { c with Memhog_vm.Config.rescue_from_free_list = false })
  in
  cell_table ~id:"ablation-rescue"
    ~title:"Ablation: rescuing freed pages from the free-list tail"
    ~header:[ "run"; "rescue"; "elapsed"; "rescued"; "hard faults" ]
    (List.concat_map
       (fun w ->
         List.map
           (fun (label, m) ->
             ( corun m w E.R,
               fun (r : E.result) ->
                 [
                   run_name w E.R;
                   label;
                   Report.ns r.E.r_elapsed;
                   Report.count
                     (r.E.r_app_stats.VS.rescued_daemon
                     + r.E.r_app_stats.VS.rescued_releaser);
                   Report.count r.E.r_app_stats.VS.hard_faults;
                 ] ))
           [ ("rescue on", machine); ("rescue off", no_rescue) ])
       [ "MATVEC"; "MGRID" ])

let ablation_drop machine =
  let no_drop =
    with_config machine " - prefetch drop disabled" (fun c ->
        { c with Memhog_vm.Config.drop_prefetch_when_low = false })
  in
  cell_table ~id:"ablation-drop"
    ~title:
      "Ablation: discarding prefetches when memory is exhausted (section \
       3.1.2)"
    ~header:[ "policy"; "MATVEC P elapsed"; "dropped"; "interactive response" ]
    (List.map
       (fun (label, m) ->
         ( corun ~sleep:(Time_ns.sec 5) m "MATVEC" E.P,
           fun (r : E.result) ->
             [
               label;
               Report.ns r.E.r_elapsed;
               Report.count r.E.r_app_stats.VS.prefetches_dropped;
               interactive_response r;
             ] ))
       [ ("drop when low (paper)", machine); ("block for memory", no_drop) ])

let ablation_tlb machine =
  let fills =
    with_config machine " + prefetch fills TLB" (fun c ->
        { c with Memhog_vm.Config.prefetch_fills_tlb = true })
  in
  cell_table ~id:"ablation-tlb"
    ~title:
      "Ablation: prefetched pages and the TLB (section 3.1.2: completed \
       prefetches are not validated and make no TLB entry)"
    ~header:[ "run"; "policy"; "per-pass"; "TLB misses" ]
    (List.concat_map
       (fun w ->
         List.map
           (fun (label, m) ->
             ( corun m w E.P,
               fun (r : E.result) ->
                 [
                   run_name w E.P;
                   label;
                   per_pass r;
                   Report.count r.E.r_app_tlb_misses;
                 ] ))
           [ ("no TLB entry (paper)", machine); ("fills TLB", fills) ])
       [ "MATVEC"; "CGM" ])

(* ------------------------------------------------------------------ *)
(* Extensions                                                          *)
(* ------------------------------------------------------------------ *)

let ext_freemem machine =
  let cell v = corun ~sleep:(Time_ns.sec 5) machine "MATVEC" v in
  {
    id = "ext-freemem";
    cells = List.map cell E.all_variants;
    render =
      (fun l ->
        render (fun fmt ->
            Format.fprintf fmt
              "Extension: free physical memory over time (MATVEC + \
               interactive, %d-frame machine)@,@,"
              machine.Machine.m_config.Memhog_vm.Config.total_frames;
            List.iter
              (fun v ->
                Format.fprintf fmt "%s:@," (E.variant_name v);
                List.iter
                  (fun s -> Format.fprintf fmt "  %a@," Telemetry.pp_summary s)
                  (Telemetry.summaries (result l (cell v)).E.r_telemetry);
                Format.fprintf fmt "@,")
              E.all_variants));
  }

let ext_two_hogs machine =
  let rows =
    [
      ("both original", Two_hogs (machine, Pir.V_original));
      ("both prefetch+release", Two_hogs (machine, Pir.V_release));
    ]
  in
  {
    id = "ext-two-hogs";
    cells = List.map snd rows;
    render =
      (fun l ->
        render (fun fmt ->
            Report.table
              ~title:
                "Extension: two out-of-core programs sharing the machine (2 \
                 passes each)"
              ~header:
                [ "configuration"; "MATVEC done"; "EMBAR done"; "daemon stole" ]
              ~rows:
                (List.map
                   (fun (label, c) ->
                     match find l c with
                     | Pair p ->
                         [
                           label;
                           Report.ns p.matvec_done;
                           Report.ns p.embar_done;
                           Report.count p.stolen;
                         ]
                     | _ -> invalid_arg "Figures.ext_two_hogs")
                   rows)
              fmt ()));
  }

let ext_reactive machine =
  (* BUK is the benchmark where application knowledge beats the clock: the
     default policy evicts pages of the randomly-accessed bucket array,
     which the application knows it will need again. *)
  cell_table ~id:"ext-reactive"
    ~title:
      "Extension: reactive (application-chosen eviction on demand) vs \
       pro-active releasing — section 2.2's argument.  BUK + interactive \
       task, 5 s sleep."
    ~header:
      [ "scheme"; "hog per-pass"; "hog faults/pass"; "daemon stole"; "interactive" ]
    (List.map
       (fun (label, variant, reactive) ->
         ( corun ~sleep:(Time_ns.sec 5) ~reactive machine "BUK" variant,
           fun (r : E.result) ->
             [
               label;
               per_pass r;
               Report.count (r.E.r_app_stats.VS.hard_faults / r.E.r_iterations);
               Report.count r.E.r_global.VS.daemon_pages_stolen;
               interactive_response r;
             ] ))
       [
         ("prefetch only (P)", E.P, false);
         ("reactive eviction (sec. 2.2)", E.R, true);
         ("pro-active release (R)", E.R, false);
       ])

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

let experiments ?chaos ?traced machine =
  let mcells, read = matrix ~machine ?chaos ?traced () in
  let of_matrix id fig = { id; cells = mcells; render = (fun l -> fig (read l)) } in
  let static id text = { id; cells = []; render = (fun _ -> text ()) } in
  [
    static "table1" (table1 ~machine);
    static "table2" (table2 ~machine);
    fig1 machine;
    of_matrix "fig7" fig7;
    of_matrix "fig8" fig8;
    of_matrix "table3" table3;
    of_matrix "fig9" fig9;
    fig10a machine;
    of_matrix "fig10b" fig10b;
    of_matrix "fig10c" fig10c;
    ablation_batch machine;
    ablation_hwbits machine;
    ablation_conservative machine;
    ablation_rescue machine;
    ablation_drop machine;
    ablation_tlb machine;
    ext_freemem machine;
    ext_reactive machine;
    ext_two_hogs machine;
  ]

(* The serving experiment grid: the open-loop key-value server co-run with
   a memory hog, swept over offered load x hog variant.

   Each cell is an independent simulation (own engine, OS, RNG streams), so
   the grid is bit-identical at any --jobs level; Pool.map only changes
   wall-clock.  The headline comparison is the paper's interactivity story
   retold for tail latency: at the same offered load, the un-released hog
   (O) steals the server's pages and p999 collapses under queueing, while
   the buffered-release hog (B) keeps the free pool healthy and the tail
   survives. *)

open Memhog_sim
module E = Experiment
module Server = Memhog_exec.Server
module Workload = Memhog_workloads.Workload

type cell = { sc_rate : float; sc_variant : E.variant }

type t = {
  s_machine : Machine.t;
  s_workload : string;
  s_slo : Time_ns.t;
  s_chaos : string option;
  s_cells : (cell * E.result) list;
}

let default_rates = [ 3200.0; 4480.0 ]
let default_variants = [ E.O; E.B ]
let default_hog = "MATVEC"

let cells t = t.s_cells
let results t = List.map snd t.s_cells

let run ?(machine = Machine.paper) ?(workload = default_hog)
    ?(rates = default_rates) ?(variants = default_variants)
    ?(slo = Time_ns.ms 30) ?(duration = Time_ns.sec 20) ?chaos ?(jobs = 1)
    ?(log = fun (_ : string) -> ()) () =
  let w = Workload.find workload in
  let grid =
    List.concat_map
      (fun rate ->
        List.map (fun v -> { sc_rate = rate; sc_variant = v }) variants)
      rates
  in
  let results =
    Pool.map ~jobs
      (fun c ->
        log
          (Printf.sprintf "serve: %s/%s hog @ %g rps" workload
             (E.variant_name c.sc_variant) c.sc_rate);
        let serve =
          E.serve_cfg ~machine ~slo ~duration ~rate_rps:c.sc_rate ()
        in
        E.run
          (E.setup ~machine ~workload:w ~variant:c.sc_variant ?chaos ~serve ()))
      grid
  in
  {
    s_machine = machine;
    s_workload = workload;
    s_slo = slo;
    s_chaos = chaos;
    s_cells = List.combine grid results;
  }

let serving_exn (r : E.result) =
  match r.E.r_serving with
  | Some s -> s
  | None -> invalid_arg "Serve: result has no serving summary"

let render t =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt
    "Serving under a %s hog (%s)%s@,SLO: %s from arrival@,@," t.s_workload
    t.s_machine.Machine.m_name
    (match t.s_chaos with
    | Some spec -> Printf.sprintf ", chaos: %s" spec
    | None -> "")
    (Time_ns.to_string t.s_slo);
  Report.table ~title:"Tail latency vs offered load"
    ~header:
      [
        "hog"; "offered"; "arrived"; "served"; "queue max"; "p50"; "p99";
        "p999"; "max"; "SLO";
      ]
    ~rows:
      (List.map
         (fun (c, r) ->
           let s = serving_exn r in
           let h = s.Server.sm_hist in
           [
             Printf.sprintf "%s/%s" t.s_workload (E.variant_name c.sc_variant);
             Printf.sprintf "%s rps" (Report.f1 c.sc_rate);
             Report.count s.Server.sm_arrived;
             Report.count s.Server.sm_recorded;
             Report.count s.Server.sm_max_queue;
             Report.ns (Histogram.percentile h 50.0);
             Report.ns (Histogram.percentile h 99.0);
             Report.ns (Histogram.percentile h 99.9);
             Report.ns
               (Option.value (Histogram.max_value h) ~default:0);
             Report.pct (Server.slo_attainment s);
           ])
         t.s_cells)
    fmt ();
  (* A cell that recorded nothing reports 0% attainment, but the zero is
     easy to misread as "merely bad" — call it out explicitly. *)
  List.iter
    (fun (c, r) ->
      let s = serving_exn r in
      if s.Server.sm_recorded = 0 then
        Format.fprintf fmt
          "@,WARNING: %s/%s @ %s rps recorded no responses (%d completed, \
           none past warm-up): the server starved; its 0%% SLO attainment \
           is vacuous, not measured."
          t.s_workload
          (E.variant_name c.sc_variant)
          (Report.f1 c.sc_rate) s.Server.sm_completed)
    t.s_cells;
  Format.pp_close_box fmt ();
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let blame_exn (r : E.result) =
  match r.E.r_serving with
  | Some _ -> Reqtrace.summarize r.E.r_reqtrace
  | None -> invalid_arg "Serve: result has no blame summary"

let slowest t =
  List.fold_left
    (fun acc (r : E.result) ->
      match (acc, Reqtrace.slowest r.E.r_reqtrace) with
      | None, sp -> sp
      | Some a, Some sp when sp.Reqtrace.sp_response > a.Reqtrace.sp_response
        ->
          Some sp
      | acc, _ -> acc)
    None (results t)

let render_blame t =
  let buf = Buffer.create 2048 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt
    "Blame: where response time went, body vs tail (%s hog, %s)@,@,"
    t.s_workload t.s_machine.Machine.m_name;
  let blames = List.map (fun (c, r) -> (c, blame_exn r)) t.s_cells in
  (* Mean per-request decomposition, one row per percentile band: the five
     components are additive by construction, so each row's parts sum to
     its response column exactly. *)
  Report.table ~title:"Tail blame (mean per request, by percentile band)"
    ~header:
      [
        "hog"; "offered"; "band"; "reqs"; "queue"; "index"; "value";
        "cpu wait"; "compute"; "response";
      ]
    ~rows:
      (List.concat_map
         (fun (c, b) ->
           List.map
             (fun (bd : Reqtrace.band) ->
               let n = max 1 bd.Reqtrace.bd_count in
               let per v = Report.ns (v / n) in
               [
                 Printf.sprintf "%s/%s" t.s_workload
                   (E.variant_name c.sc_variant);
                 Printf.sprintf "%s rps" (Report.f1 c.sc_rate);
                 bd.Reqtrace.bd_label;
                 Report.count bd.Reqtrace.bd_count;
                 per bd.Reqtrace.bd_queue;
                 per bd.Reqtrace.bd_index;
                 per bd.Reqtrace.bd_value;
                 per bd.Reqtrace.bd_cpu;
                 per bd.Reqtrace.bd_compute;
                 per bd.Reqtrace.bd_response;
               ])
             b.Reqtrace.su_bands)
         blames)
    fmt ();
  Format.fprintf fmt "@,";
  Report.table ~title:"Prefetch race and demand-disk attribution"
    ~header:
      [
        "hog"; "offered"; "sampled"; "pf hidden"; "pf lost"; "slack p50";
        "bypasses"; "arm queue"; "arm service"; "transit";
      ]
    ~rows:
      (List.map
         (fun (c, b) ->
           [
             Printf.sprintf "%s/%s" t.s_workload (E.variant_name c.sc_variant);
             Printf.sprintf "%s rps" (Report.f1 c.sc_rate);
             Printf.sprintf "%s/%s"
               (Report.count b.Reqtrace.su_sampled)
               (Report.count b.Reqtrace.su_committed);
             Report.count b.Reqtrace.su_pf_hidden;
             Report.count b.Reqtrace.su_pf_lost;
             Report.ns (Histogram.percentile b.Reqtrace.su_pf_slack 50.0);
             Report.count b.Reqtrace.su_bypasses;
             Report.ns b.Reqtrace.su_disk_queue;
             Report.ns b.Reqtrace.su_disk_service;
             Report.ns b.Reqtrace.su_transit;
           ])
         blames)
    fmt ();
  Format.pp_close_box fmt ();
  Format.pp_print_flush fmt ();
  Buffer.contents buf

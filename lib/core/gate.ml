(* The tolerance-0 gate registry: one entry per committed baseline in
   bench/.  Each entry simulates on the quick machine with the job count
   its baseline was produced at, fails on the physics it exists to hold,
   and hands back the canonical document the baseline freezes. *)

open Memhog_sim
module E = Experiment
module Runtime = Memhog_runtime.Runtime
module Server = Memhog_exec.Server
module Workload = Memhog_workloads.Workload

type outcome = { doc : Metrics_io.json; artifacts : (string * string) list }
type entry = { name : string; baseline : string; run : unit -> outcome }

let machine = Machine.quick

let require gate cond msg =
  if not cond then failwith (Printf.sprintf "%s: %s" gate msg)

let metrics ~label results =
  Metrics_io.metrics_json (Metrics.of_results ~label results)

(* ------------------------------------------------------------------ *)
(* smoke: the Figure 7 matrix cut down to MATVEC                       *)
(* ------------------------------------------------------------------ *)

let smoke () =
  let cells, read = Figures.matrix ~machine ~workloads:[ "MATVEC" ] () in
  let m = read (Figures.simulate ~jobs:2 cells) in
  List.iter
    (fun (r : E.result) ->
      require "smoke" r.E.r_invariants_ok
        (Printf.sprintf "%s/%s: OS invariants violated after the run"
           r.E.r_workload
           (E.variant_name r.E.r_variant)))
    (Figures.matrix_results m);
  { doc = Metrics_io.metrics_json (Metrics.of_matrix m); artifacts = [] }

(* ------------------------------------------------------------------ *)
(* chaos: canned fault plans and the degradation governor              *)
(* ------------------------------------------------------------------ *)

(* Tighter ladder than the production default: the canned plans are short
   (seconds of simulated time), so windows close faster and a single bad
   window is enough to step down. *)
let chaos_governor =
  {
    Runtime.gv_window_ns = Time_ns.ms 100;
    gv_min_samples = 4;
    gv_bad_rate = 0.3;
    gv_degrade_after = 1;
    gv_recover_after = 3;
  }

type chaos_plan = {
  cp_name : string;
  cp_workload : string;
  cp_variant : E.variant;
  cp_sleep : Time_ns.t option;  (** co-run the interactive task *)
  cp_spec : string;
  cp_check : string -> E.result -> Chaos.stats -> unit;
}

(* The brown-out must drive the governor all the way to demand paging
   (level 2) and back — both directions visible as trace events. *)
let check_brown_out gate (r : E.result) (cs : Chaos.stats) =
  let reached_2 = ref false and recovered = ref false in
  Trace.iter r.E.r_trace (fun ~time:_ ~stream:_ ev ->
      match ev with
      | Trace.Governor_transition { level_to = 2; _ } -> reached_2 := true
      | Trace.Governor_transition { level_from = 2; _ } -> recovered := true
      | _ -> ());
  require gate !reached_2 "governor never degraded to demand paging (level 2)";
  require gate !recovered "governor never recovered from level 2";
  require gate
    (match r.E.r_runtime with
    | Some rt ->
        rt.Runtime.rt_gov_degrades >= 2 && rt.Runtime.rt_gov_recoveries >= 1
    | None -> false)
    "transition counters missing from runtime stats";
  require gate (cs.Chaos.disk_faults > 0) "no disk faults were injected"

let check_releaser_outage gate _ (cs : Chaos.stats) =
  require gate (cs.Chaos.directives_dropped > 0)
    "no release directives were dropped";
  require gate (cs.Chaos.releaser_stall_ns > 0) "the releaser never stalled"

let check_pressure gate _ (cs : Chaos.stats) =
  require gate (cs.Chaos.pressure_spikes > 0) "no pressure spike fired";
  require gate (cs.Chaos.pressure_pages > 0)
    "the phantom competitor claimed no pages"

let chaos_plans =
  [
    {
      cp_name = "disk-brown-out";
      cp_workload = "EMBAR";
      cp_variant = E.B;
      cp_sleep = None;
      cp_spec = "disk-fault@2s-6s:p=0.8,retries=4;disk-slow@2s-6s:factor=32";
      cp_check = check_brown_out;
    };
    {
      cp_name = "releaser-outage";
      cp_workload = "MATVEC";
      cp_variant = E.B;
      cp_sleep = None;
      cp_spec = "releaser-stall@1s-3s;releaser-drop@1s-4s:p=0.5";
      cp_check = check_releaser_outage;
    };
    {
      cp_name = "pressure-spike";
      cp_workload = "MATVEC";
      cp_variant = E.R;
      cp_sleep = Some (Time_ns.sec 2);
      cp_spec = "pressure@10s-40s:pages=512,hold=2s";
      cp_check = check_pressure;
    };
  ]

let chaos () =
  let run p =
    let gate = "chaos " ^ p.cp_name in
    let min_sim_time = Option.fold ~none:0 ~some:E.run_length p.cp_sleep in
    let r =
      E.run
        (E.setup ~machine ?interactive_sleep:p.cp_sleep ~min_sim_time
           ~trace:(Trace.create ()) ~chaos:p.cp_spec ~governor:chaos_governor
           ~workload:(Workload.find p.cp_workload) ~variant:p.cp_variant ())
    in
    require gate r.E.r_invariants_ok "OS invariants violated after the run";
    (match r.E.r_chaos with
    | Some cs -> p.cp_check gate r cs
    | None -> failwith (gate ^ ": no chaos stats"));
    r
  in
  {
    doc =
      metrics
        ~label:(Printf.sprintf "chaos scenarios, %s" machine.Machine.m_name)
        (Pool.map ~jobs:2 run chaos_plans);
    artifacts = [];
  }

(* ------------------------------------------------------------------ *)
(* serve: tail latency under a hog, with per-request blame            *)
(* ------------------------------------------------------------------ *)

(* Offered loads at and past the quick machine's knee, where the
   un-released hog's page stealing outruns the server's self-healing
   urgent re-prefetches.  Below the knee both variants hold the SLO and
   the comparison is noise. *)
let serve_rates = [ 1600.0; 3840.0 ]

let serve () =
  let t = Serve.run ~machine ~rates:serve_rates ~jobs:2 () in
  List.iter
    (fun rate ->
      let p999 v =
        let _, r =
          List.find
            (fun ((c : Serve.cell), _) ->
              c.Serve.sc_rate = rate && c.Serve.sc_variant = v)
            (Serve.cells t)
        in
        Histogram.percentile (Serve.serving_exn r).Server.sm_hist 99.9
      in
      let o = p999 E.O and b = p999 E.B in
      require "serve" (b < o)
        (Printf.sprintf
           "at %g rps buffered release must beat the un-released hog on \
            p999 (O %d ns, B %d ns)"
           rate o b))
    serve_rates;
  (* Additivity is structural in Reqtrace: a sampled span whose five
     components miss its response means the span lifecycle was
     corrupted. *)
  List.iter
    (fun (r : E.result) ->
      Reqtrace.iter_sampled r.E.r_reqtrace (fun sp ->
          let open Reqtrace in
          let parts =
            sp.sp_queue + sp.sp_index + sp.sp_value + sp.sp_cpu + sp.sp_compute
          in
          if parts <> sp.sp_response then
            failwith
              (Printf.sprintf
                 "serve: span key=%d components sum to %d ns, response %d ns"
                 sp.sp_key parts sp.sp_response)))
    (Serve.results t);
  {
    doc =
      metrics
        ~label:
          (Printf.sprintf "serve %s %s" Serve.default_hog
             machine.Machine.m_name)
        (Serve.results t);
    artifacts =
      (match Serve.slowest t with
      | Some sp ->
          [
            ( "BLAME_slowest.trace.json",
              Trace_export.blame_span_to_chrome_json sp );
          ]
      | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* tiers, obs: the tiered store and its telemetry brownout             *)
(* ------------------------------------------------------------------ *)

(* The partition cell serves at the knee: low enough that post-window
   recovery is physically possible, high enough that the fault window
   sees thousands of in-flight requests. *)
let partition_rate = List.hd serve_rates

let tiers () =
  let t = Tier_exp.run ~machine ~rate:partition_rate ~jobs:2 () in
  Tier_exp.check t;
  (* The mix cells run the hog alone, so the ledger must reconcile with
     the VM's counters exactly (the swap mix is plain EMBAR/B). *)
  List.iter
    (fun ((m : Tier_exp.mix), (r : E.result)) ->
      let gate = "tiers " ^ m.Tier_exp.mx_name in
      List.iter
        (fun (counter, ledger, vm) ->
          require gate (ledger = vm)
            (Printf.sprintf "%s: ledger %d <> vm %d" counter ledger vm))
        (E.ledger_reconciliation r);
      require gate
        (Ledger.invariants_ok r.E.r_ledger)
        "ledger summary violates its structural invariants")
    t.Tier_exp.tx_mixes;
  {
    doc =
      metrics
        ~label:(Printf.sprintf "tiers %s" machine.Machine.m_name)
        (Tier_exp.results t);
    artifacts = [];
  }

let obs () =
  let t = Obs_exp.run ~machine ~rate:partition_rate () in
  Obs_exp.check t;
  {
    doc =
      metrics
        ~label:(Printf.sprintf "obs %s" machine.Machine.m_name)
        (Obs_exp.results t);
    artifacts =
      [
        ( "OBS_openmetrics.txt",
          Telemetry.to_openmetrics (Obs_exp.telemetry t) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* perf: the throughput cells' work counters                           *)
(* ------------------------------------------------------------------ *)

let perf () = { doc = Perf.run ~machine ~jobs:2 (); artifacts = [] }

let entries =
  [
    { name = "smoke"; baseline = "BENCH_metrics.json"; run = smoke };
    { name = "chaos"; baseline = "CHAOS_metrics.json"; run = chaos };
    { name = "serve"; baseline = "SERVE_metrics.json"; run = serve };
    { name = "tiers"; baseline = "TIER_metrics.json"; run = tiers };
    { name = "obs"; baseline = "OBS_metrics.json"; run = obs };
    { name = "perf"; baseline = "PERF_metrics.json"; run = perf };
  ]

let select names =
  let find n = List.find_opt (fun e -> e.name = n) entries in
  match List.filter (fun n -> find n = None) names with
  | [] -> Ok (if names = [] then entries else List.filter_map find names)
  | unknown ->
      Error
        (Printf.sprintf "unknown gate %s (known: %s)"
           (String.concat ", " unknown)
           (String.concat ", " (List.map (fun e -> e.name) entries)))

let compare ~baseline doc = Metrics_io.compare_json ~tolerance:0.0 baseline doc

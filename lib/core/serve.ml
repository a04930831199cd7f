(* The serving experiment grid: the open-loop key-value server co-run with
   a memory hog, swept over offered load x hog variant.

   Each cell is an independent simulation (own engine, OS, RNG streams), so
   the grid is bit-identical at any --jobs level; the job count only
   changes wall-clock.  The headline comparison is the paper's
   interactivity story retold for tail latency: at the same offered load,
   the un-released hog (O) steals the server's pages and p999 collapses
   under queueing, while the buffered-release hog (B) keeps the free pool
   healthy and the tail survives. *)

open Memhog_sim
module E = Experiment
module Server = Memhog_exec.Server

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

let plan ?(machine = Machine.paper) ?(workload = default_hog)
    ?(rates = default_rates) ?(variants = default_variants)
    ?(slo = Time_ns.ms 30) ?(duration = Time_ns.sec 20) ?chaos () =
  let grid =
    List.concat_map
      (fun rate ->
        List.map (fun v -> { sc_rate = rate; sc_variant = v }) variants)
      rates
  in
  let cell c =
    Figures.corun ?chaos
      ~serve:(E.serve_cfg ~machine ~slo ~duration ~rate_rps:c.sc_rate ())
      machine workload c.sc_variant
  in
  ( List.map cell grid,
    fun l ->
      {
        s_machine = machine;
        s_workload = workload;
        s_slo = slo;
        s_chaos = chaos;
        s_cells = List.map (fun c -> (c, Figures.result l (cell c))) grid;
      } )

let run ?machine ?workload ?rates ?variants ?slo ?duration ?chaos ?jobs ?log
    () =
  let cells, read =
    plan ?machine ?workload ?rates ?variants ?slo ?duration ?chaos ()
  in
  read (Figures.simulate ?jobs ?log cells)

let serving_exn (r : E.result) =
  match r.E.r_serving with
  | Some s -> s
  | None -> invalid_arg "Serve: result has no serving summary"

(* Figures 1/10 retold for an open-loop server: the hog's releases are what
   keep the server's tail latency flat as offered load rises.  p999 and SLO
   attainment per offered load and hog variant, plus the O/B p999 ratio. *)
let tail t =
  let rates =
    List.sort_uniq compare (List.map (fun (c, _) -> c.sc_rate) t.s_cells)
  in
  let variants =
    List.filter
      (fun v -> List.exists (fun (c, _) -> c.sc_variant = v) t.s_cells)
      E.all_variants
  in
  let lookup rate v =
    Option.map serving_exn
      (List.assoc_opt { sc_rate = rate; sc_variant = v } t.s_cells)
  in
  let p999 s = Histogram.percentile s.Server.sm_hist 99.9 in
  let rows =
    List.map
      (fun rate ->
        let per_variant =
          List.concat_map
            (fun v ->
              match lookup rate v with
              | Some s ->
                  [ Report.ns (p999 s); Report.pct (Server.slo_attainment s) ]
              | None -> [ "-"; "-" ])
            variants
        in
        let spread =
          match (lookup rate E.O, lookup rate E.B) with
          | Some o, Some b when p999 b > 0 ->
              Report.ratio (float_of_int (p999 o) /. float_of_int (p999 b))
          | _ -> "-"
        in
        (Printf.sprintf "%s rps" (Report.f1 rate) :: per_variant) @ [ spread ])
      rates
  in
  Format.asprintf "@[<v>%t@]" (fun fmt ->
      Report.table
        ~title:
          (Printf.sprintf
             "Serving tail vs offered load: %s hog, SLO %s from arrival"
             t.s_workload (Time_ns.to_string t.s_slo))
        ~header:
          ("offered"
          :: List.concat_map
               (fun v ->
                 let n = E.variant_name v in
                 [ n ^ " p999"; n ^ " SLO" ])
               variants
          @ [ "O/B p999" ])
        ~rows fmt ())

let pp_latency fmt t =
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
    t.s_cells

let render t = Format.asprintf "@[<v>%a@]" pp_latency t ^ "\n" ^ tail t

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

(* The p999 ratio says the un-released hog hurts the tail; the blame shares
   say how: under O the tail's time concentrates in queue and value-stall,
   under B it stays in compute.  Shares are over the tail bands (p99 and
   beyond) of each cell's deterministic span sample. *)
let tail_shares t =
  let rows =
    List.map
      (fun (c, r) ->
        let b = blame_exn r in
        let tail =
          List.filter
            (fun (bd : Reqtrace.band) -> bd.Reqtrace.bd_label <> "body")
            b.Reqtrace.su_bands
        in
        let sum f = List.fold_left (fun a bd -> a + f bd) 0 tail in
        let resp = sum (fun bd -> bd.Reqtrace.bd_response) in
        let share v =
          if resp = 0 then "-"
          else Report.pct (float_of_int v /. float_of_int resp)
        in
        [
          Printf.sprintf "%s/%s" t.s_workload (E.variant_name c.sc_variant);
          Printf.sprintf "%s rps" (Report.f1 c.sc_rate);
          Report.count (sum (fun bd -> bd.Reqtrace.bd_count));
          share (sum (fun bd -> bd.Reqtrace.bd_queue));
          share (sum (fun bd -> bd.Reqtrace.bd_index));
          share (sum (fun bd -> bd.Reqtrace.bd_value));
          share (sum (fun bd -> bd.Reqtrace.bd_cpu));
          share (sum (fun bd -> bd.Reqtrace.bd_compute));
        ])
      t.s_cells
  in
  Format.asprintf "@[<v>%t@]" (fun fmt ->
      Report.table
        ~title:
          (Printf.sprintf
             "Tail blame shares (p99 and beyond): %s hog, sampled requests"
             t.s_workload)
        ~header:
          [
            "hog"; "offered"; "tail reqs"; "queue"; "index"; "value";
            "cpu wait"; "compute";
          ]
        ~rows fmt ())

let pp_blame fmt t =
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
    fmt ()

let render_blame t =
  Format.asprintf "@[<v>%a@]" pp_blame t ^ "\n" ^ tail_shares t

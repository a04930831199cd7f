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

(* One label for the grid's document, so [memhog serve --metrics] writes
   what [memhog gate serve] compares for the same grid. *)
let metrics t =
  let label =
    Printf.sprintf "serve %s %s%s" t.s_workload t.s_machine.Machine.m_name
      (match t.s_chaos with Some spec -> ", chaos " ^ spec | None -> "")
  in
  Metrics.of_results ~label (results t)

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

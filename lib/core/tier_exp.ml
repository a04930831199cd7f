(* The tiered-backing-store experiment: a Figure 7/8-style matrix of one
   workload over backend mixes (swap only, far memory, compressed RAM,
   both), plus a partition-mid-run serving scenario that drives the
   failure path end to end — far tier hard-partitioned while demotions
   and fetches are in flight, circuit breaker opens, demotions fail over
   to the local swap copy, in-flight reads are rescued, and the breaker
   probes closed again once the link heals.

   Each cell is an independent simulation (own engine, OS, tier router,
   RNG streams), so the whole experiment is byte-identical at any
   [--jobs] level. *)

open Memhog_sim
module E = Experiment
module Server = Memhog_exec.Server
module Tiers = Memhog_vm.Tiers
module Workload = Memhog_workloads.Workload

type mix = { mx_name : string; mx_tiers : string option }

(* The matrix: EMBAR/B over every backend mix. *)
let workload = "EMBAR"
let variant = E.B

let mixes =
  [
    { mx_name = "swap"; mx_tiers = None };
    { mx_name = "far"; mx_tiers = Some "far" };
    { mx_name = "zram"; mx_tiers = Some "zram" };
    (* Eq. 2 priorities of the compiled workloads span 0..2, so the
       combined mix splits at 1: distant-reuse releases (0) go to far
       memory, near-reuse ones (>= 1) to compressed RAM. *)
    { mx_name = "far+zram"; mx_tiers = Some "far+zram+route:thresh=1" };
  ]

(* The partition scenario's tier spec: far memory with the default
   microsecond link, but a short breaker hold-off so the half-open probe
   cycle is visible inside a 20-second serving window. *)
let partition_tiers = "far+route:min=3,hold=50ms,cap=400ms"

(* Hard partition mid-window: long enough that every in-flight RPC burns
   its full retry schedule and the breaker opens, short enough that the
   post-window recovery mark still sees thousands of arrivals. *)
let partition_chaos = "net-partition@6s-9s"
let partition_mark = Time_ns.sec 10

type t = {
  tx_machine : Machine.t;
  tx_mixes : (mix * E.result) list;
  tx_rate : float;
  tx_partition : E.result;
}

let results t = List.map snd t.tx_mixes @ [ t.tx_partition ]

let run ?(machine = Machine.paper) ~rate ?(jobs = 1)
    ?(log = fun (_ : string) -> ()) () =
  let w = Workload.find workload in
  (* One flat list of thunks so the pool overlaps the matrix cells with
     the (longer) partition cell instead of running the phases back to
     back. *)
  let mix_cell m () =
    log
      (Printf.sprintf "tiers: %s/%s on %s" workload (E.variant_name variant)
         m.mx_name);
    E.run (E.setup ~machine ~workload:w ~variant ?tiers:m.mx_tiers ())
  in
  let partition_cell () =
    log
      (Printf.sprintf "tiers: partition serve cell @ %g rps under %S" rate
         partition_chaos);
    let serve =
      E.serve_cfg ~machine ~mark:partition_mark ~rate_rps:rate ()
    in
    (* EMBAR dirties the pages it releases (MATVEC's are clean), so the
       write-back path keeps demoting to the far tier throughout — the
       partition therefore hits in-flight placements and fetches, and the
       post-heal traffic drives the half-open probe that closes the
       breaker again.  Variant R (aggressive release) so the governor's
       tier-aware rung is exercised: while the breaker is open,
       aggressive releases are forced into the local buffer instead of
       being demoted to a dead tier. *)
    E.run
      (E.setup ~machine ~workload:(Workload.find "EMBAR") ~variant:E.R
         ~chaos:partition_chaos ~tiers:partition_tiers
         ~trace:(Trace.create ()) ~serve ())
  in
  let cells =
    List.map (fun m -> `Mix m) mixes @ [ `Partition ]
  in
  let run_one = function
    | `Mix m -> (Some m, mix_cell m ())
    | `Partition -> (None, partition_cell ())
  in
  let results = Pool.map ~jobs run_one cells in
  let mix_results =
    List.filter_map
      (function Some m, r -> Some (m, r) | None, _ -> None)
      results
  in
  let partition =
    match List.find_opt (fun (m, _) -> m = None) results with
    | Some (_, r) -> r
    | None -> failwith "Tier_exp.run: partition cell missing"
  in
  {
    tx_machine = machine;
    tx_mixes = mix_results;
    tx_rate = rate;
    tx_partition = partition;
  }

let tiers_exn (r : E.result) =
  match r.E.r_tiers with
  | Some s -> s
  | None -> invalid_arg "Tier_exp: result has no tiers summary"

let serving_exn (r : E.result) =
  match r.E.r_serving with
  | Some s -> s
  | None -> invalid_arg "Tier_exp: result has no serving summary"

let require name cond msg =
  if not cond then failwith (Printf.sprintf "tiers %s: %s" name msg)

let find_tier (s : Tiers.summary) tier =
  List.find_opt (fun (t : Tiers.tier_summary) -> t.Tiers.ts_tier = tier)
    s.Tiers.s_tiers

(* A far-tier counter, 0 when the cell has no far tier. *)
let far_count s f =
  match find_tier s Tiers.tier_far with Some row -> f row | None -> 0

(* The experiment's built-in gates: the robustness physics the metrics
   baseline then freezes byte-for-byte. *)
let check t =
  List.iter
    (fun (m, (r : E.result)) ->
      require m.mx_name r.E.r_invariants_ok
        "OS invariants violated after the run";
      match m.mx_tiers with
      | None ->
          require m.mx_name (r.E.r_tiers = None)
            "swap-only cell reported a tiers summary"
      | Some spec ->
          let s = tiers_exn r in
          if String.length spec >= 3 && String.sub spec 0 3 = "far" then
            require m.mx_name
              (far_count s (fun row -> row.Tiers.ts_writes) > 0)
              "far tier present but never written";
          match find_tier s Tiers.tier_zram with
          | Some row ->
              require m.mx_name (row.Tiers.ts_writes > 0)
                "zram tier present but never written"
          | None -> ())
    t.tx_mixes;
  (* Partition scenario: the cell must complete (no fiber blocked forever
     on a dead tier — the arrival queue fully drains), demotions must
     have failed over, in-flight reads must have been rescued from the
     durable swap copy, the breaker must have opened, and the server's
     SLO attainment after the window must be no worse than its
     window-inclusive figure. *)
  let r = t.tx_partition in
  require "partition" r.E.r_invariants_ok
    "OS invariants violated after the partition run";
  let s = tiers_exn r in
  require "partition" (s.Tiers.s_rescues > 0)
    "no fetch was rescued from the swap copy";
  require "partition"
    (far_count s (fun row -> row.Tiers.ts_failovers) > 0)
    "no demotion failed over to local swap";
  require "partition"
    (far_count s (fun row -> row.Tiers.ts_timeouts) > 0)
    "the partition produced no RPC timeouts";
  require "partition"
    (far_count s (fun row -> row.Tiers.ts_breaker_transitions) > 0)
    "the breaker never transitioned";
  let sv = serving_exn r in
  require "partition" (sv.Server.sm_completed = sv.Server.sm_arrived)
    "the server did not drain its queue (a fiber blocked forever?)";
  require "partition" (sv.Server.sm_post_recorded > 0)
    "no requests recorded after the recovery mark";
  require "partition"
    (Server.post_attainment sv >= Server.slo_attainment sv)
    (Printf.sprintf
       "SLO attainment did not recover after the window (post %.3f < \
        overall %.3f)"
       (Server.post_attainment sv)
       (Server.slo_attainment sv))

let render t =
  let buf = Buffer.create 2048 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt
    "Tiered backing store: %s/%s over backend mixes (%s)@,@," workload
    (E.variant_name variant) t.tx_machine.Machine.m_name;
  Report.table ~title:"Execution by backend mix (Figure 7 components)"
    ~header:
      [ "mix"; "user"; "system"; "io stall"; "res stall"; "elapsed" ]
    ~rows:
      (List.map
         (fun (m, (r : E.result)) ->
           let b = r.E.r_breakdown in
           [
             m.mx_name;
             Report.ns b.E.b_user;
             Report.ns b.E.b_system;
             Report.ns b.E.b_io_stall;
             Report.ns b.E.b_resource_stall;
             Report.ns r.E.r_elapsed;
           ])
         t.tx_mixes)
    fmt ();
  Format.fprintf fmt "@,";
  Report.table ~title:"Tier traffic by backend mix"
    ~header:
      [
        "mix"; "tier"; "reads"; "writes"; "timeouts"; "failovers";
        "rescues"; "placed";
      ]
    ~rows:
      (List.concat_map
         (fun (m, (r : E.result)) ->
           match r.E.r_tiers with
           | None -> [ [ m.mx_name; "swap"; "-"; "-"; "-"; "-"; "-"; "-" ] ]
           | Some s ->
               List.map
                 (fun (row : Tiers.tier_summary) ->
                   [
                     m.mx_name;
                     Tiers.tier_name row.Tiers.ts_tier;
                     Report.count row.Tiers.ts_reads;
                     Report.count row.Tiers.ts_writes;
                     Report.count row.Tiers.ts_timeouts;
                     Report.count row.Tiers.ts_failovers;
                     Report.count s.Tiers.s_rescues;
                     Report.count s.Tiers.s_placed;
                   ])
                 s.Tiers.s_tiers)
         t.tx_mixes)
    fmt ();
  Format.fprintf fmt "@,";
  let r = t.tx_partition in
  let s = tiers_exn r in
  let sv = serving_exn r in
  let far_get = far_count s in
  Report.table
    ~title:
      (Printf.sprintf "Far-memory partition mid-serve (%s, %g rps)"
         partition_chaos t.tx_rate)
    ~header:
      [
        "timeouts"; "retries"; "failovers"; "rescues"; "breaker flips";
        "tier-buffered"; "SLO"; "SLO post-mark";
      ]
    ~rows:
      [
        [
          Report.count (far_get (fun row -> row.Tiers.ts_timeouts));
          Report.count (far_get (fun row -> row.Tiers.ts_retries));
          Report.count (far_get (fun row -> row.Tiers.ts_failovers));
          Report.count s.Tiers.s_rescues;
          Report.count
            (far_get (fun row -> row.Tiers.ts_breaker_transitions));
          (match r.E.r_runtime with
          | Some rt ->
              Report.count rt.Memhog_runtime.Runtime.rt_tier_buffered
          | None -> "-");
          Report.pct (Server.slo_attainment sv);
          Report.pct (Server.post_attainment sv);
        ];
      ]
    fmt ();
  Format.pp_close_box fmt ();
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* The tiered-backing-store experiment: a Figure 7/8-style matrix of one
   workload over backend mixes (swap only, far memory, compressed RAM,
   both), plus a partition-mid-run serving scenario that drives the
   failure path end to end — far tier hard-partitioned while demotions
   and fetches are in flight, circuit breaker opens, demotions fail over
   to the local swap copy, in-flight reads are rescued, and the breaker
   probes closed again once the link heals.

   Each cell is an independent simulation (own engine, OS, tier router,
   RNG streams), so the whole experiment is byte-identical at any
   [--jobs] level.  The cells run through the plan's runner, which checks
   the OS invariants and that the partition cell's server completed
   every request (no fiber blocked forever on the dead tier). *)

open Memhog_sim
module E = Experiment
module Server = Memhog_exec.Server
module Tiers = Memhog_vm.Tiers

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
  tx_partition : E.result;
}

let metrics t =
  Metrics.of_results
    ~label:(Printf.sprintf "tiers %s" t.tx_machine.Machine.m_name)
    (List.map snd t.tx_mixes @ [ t.tx_partition ])

(* EMBAR dirties the pages it releases (MATVEC's are clean), so the
   write-back path keeps demoting to the far tier throughout — the
   partition therefore hits in-flight placements and fetches, and the
   post-heal traffic drives the half-open probe that closes the breaker
   again.  Variant R (aggressive release) so the governor's tier-aware
   rung is exercised: while the breaker is open, aggressive releases are
   forced into the local buffer instead of being demoted to a dead
   tier. *)
let partition_cell ?(chaos = partition_chaos) ?telemetry machine ~rate =
  Figures.corun ~chaos ~tiers:partition_tiers ~traced:true
    ~serve:(E.serve_cfg ~machine ~mark:partition_mark ~rate_rps:rate ())
    ?telemetry machine "EMBAR" E.R

let plan ?(machine = Machine.paper) ~rate () =
  let mix_cell m = Figures.corun ?tiers:m.mx_tiers machine workload variant in
  let partition = partition_cell machine ~rate in
  (* One plan, so the pool overlaps the matrix cells with the (longer)
     partition cell instead of running the phases back to back. *)
  ( List.map mix_cell mixes @ [ partition ],
    fun l ->
      {
        tx_machine = machine;
        tx_mixes = List.map (fun m -> (m, Figures.result l (mix_cell m))) mixes;
        tx_partition = Figures.result l partition;
      } )

let run ?machine ~rate ?jobs ?log () =
  let cells, read = plan ?machine ~rate () in
  read (Figures.simulate ?jobs ?log cells)

let tiers_exn (r : E.result) =
  match r.E.r_tiers with
  | Some s -> s
  | None -> invalid_arg "Tier_exp: result has no tiers summary"

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
  (* Partition scenario (the runner has already checked that the server
     drained its queue): demotions must have failed over, in-flight reads
     must have been rescued from the durable swap copy, the breaker must
     have opened, and the server's SLO attainment after the window must
     be no worse than its window-inclusive figure. *)
  let r = t.tx_partition in
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
  let sv = Serve.serving_exn r in
  require "partition" (sv.Server.sm_post_recorded > 0)
    "no requests recorded after the recovery mark";
  require "partition"
    (Server.post_attainment sv >= Server.slo_attainment sv)
    (Printf.sprintf
       "SLO attainment did not recover after the window (post %.3f < \
        overall %.3f)"
       (Server.post_attainment sv)
       (Server.slo_attainment sv))

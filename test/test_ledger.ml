(* Tests for the page-lifecycle ledger: byte-identical serialization at any
   --jobs, totality and legality of [observe] under arbitrary event
   interleavings, and exact reconciliation against the VM's own counters. *)

module Trace = Memhog_sim.Trace
module Ledger = Memhog_sim.Ledger
module E = Memhog_core.Experiment
module Machine = Memhog_core.Machine
module Metrics = Memhog_core.Metrics
module Mio = Memhog_core.Metrics_io
module Pool = Memhog_core.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let run_cell () =
  let wl = Memhog_workloads.Workload.find "EMBAR" in
  E.run
    (E.setup ~machine:Machine.quick ~workload:wl ~variant:E.B ~iterations:1 ())

(* The full canonical metrics document embeds the ledger object, so string
   equality here is the acceptance criterion "the ledger object is
   byte-identical across --jobs" (and then some). *)
let render r =
  Mio.to_string (Mio.metrics_json (Metrics.of_results ~label:"ledger" [ r ]))

let test_jobs_determinism () =
  let serial = render (run_cell ()) in
  let pooled = Pool.map ~jobs:8 (fun () -> render (run_cell ())) [ (); () ] in
  List.iteri
    (fun i s -> check_str (Printf.sprintf "pooled replica %d" i) serial s)
    pooled

(* The ledger keeps its own tallies of the facts Vm_stats counts, so the
   two are independent witnesses: every variant of four workloads, each
   hog alone for one pass, must agree counter by counter. *)
let test_reconciles_with_vm_stats () =
  List.iter
    (fun w ->
      let wl = Memhog_workloads.Workload.find w in
      List.iter
        (fun variant ->
          let r =
            E.run
              (E.setup ~machine:Machine.quick ~workload:wl ~variant
                 ~iterations:1 ())
          in
          let cell = Printf.sprintf "%s/%s" w (E.variant_name variant) in
          List.iter
            (fun (counter, ledger, vm) ->
              check_int (Printf.sprintf "%s %s" cell counter) vm ledger)
            (E.ledger_reconciliation r);
          check_bool (cell ^ " summary invariants") true
            (Ledger.invariants_ok r.E.r_ledger))
        E.all_variants)
    [ "EMBAR"; "MATVEC"; "BUK"; "FFTPDE" ]

(* Overwrite every count of a summary and of each of its rows.  The
   records are mutable, so [summarize] must hand out copies: what a caller
   writes must reach neither the ledger nor a later summary. *)
let scribble (s : Ledger.summary) =
  List.iter
    (fun (r : Ledger.site_row) ->
      r.sr_pf_sent <- -1; r.sr_pf_issued <- -1; r.sr_pf_dropped <- -1;
      r.sr_pf_raced <- -1; r.sr_pf_done <- -1; r.sr_pf_referenced <- -1;
      r.sr_pf_useless <- -1; r.sr_pf_late <- -1; r.sr_pf_saved_ns <- -1;
      r.sr_rel_hints <- -1; r.sr_rel_filtered <- -1; r.sr_rel_buffered <- -1;
      r.sr_rel_stale <- -1; r.sr_rel_sent <- -1; r.sr_rel_skipped <- -1;
      r.sr_rel_freed <- -1; r.sr_rel_rescued <- -1; r.sr_rel_refaulted <- -1;
      r.sr_rel_reused <- -1; r.sr_rel_unreclaimed <- -1;
      r.sr_priority_sum <- -1; r.sr_priority_n <- -1)
    s.ls_sites;
  s.ls_pages_tracked <- -1; s.ls_useless_prefetches <- -1;
  s.ls_late_prefetches <- -1; s.ls_early_rescued <- -1;
  s.ls_early_refaulted <- -1; s.ls_useful_releases <- -1;
  s.ls_unnecessary_releases <- -1; s.ls_hard_faults <- -1;
  s.ls_soft_faults <- -1; s.ls_validation_faults <- -1;
  s.ls_zero_fills <- -1; s.ls_rescues <- -1; s.ls_prefetches_issued <- -1;
  s.ls_prefetches_dropped <- -1; s.ls_releases_freed <- -1;
  s.ls_releases_skipped <- -1; s.ls_tier_demotions <- -1;
  s.ls_tier_fetches <- -1; s.ls_tier_failovers <- -1; s.ls_tier_rescues <- -1

let test_null_and_empty () =
  check_bool "null disabled" false (Ledger.enabled Ledger.null);
  Ledger.observe Ledger.null ~time:0 ~stream:0 (Trace.Hard_fault { vpn = 1 });
  let s = Ledger.summarize Ledger.null in
  check_bool "null stays empty" true (s = Ledger.empty_summary);
  (* [null] is shared by every cell on every domain: a caller writing to
     its summary must not reach its counts. *)
  scribble s;
  check_bool "null's counts unwritten" true
    (Ledger.summarize Ledger.null = Ledger.empty_summary);
  check_bool "empty summary legal" true
    (Ledger.invariants_ok Ledger.empty_summary);
  check_int "empty has no sites" 0 (List.length Ledger.empty_summary.ls_sites)

(* ------------------------------------------------------------------ *)
(* Reference model: the hash-table ledger the array ledger replaced     *)
(* ------------------------------------------------------------------ *)

(* The ledger as it was before page states moved into per-process int
   arrays: a hash table of boxed lifecycle states keyed by (pid, vpn), and
   a hash table of site records.  Kept verbatim (observe and summarize) so
   the array ledger can be checked against it on random event streams. *)
module Ref = struct
  module Trace = Memhog_sim.Trace

  type pstate =
    | Not_resident
    | Pf_sent of int  (* site: intent accepted by the run-time layer *)
    | Pf_inflight of int  (* site: OS started the asynchronous fetch *)
    | Prefetched of { site : int; ns : int }
        (* resident via a completed prefetch, not yet referenced *)
    | Resident
    | Released of int  (* site: release forwarded to the OS, not yet freed *)
    | Freed of int  (* site: on the free list via the releaser *)
    | Freed_daemon  (* on the free list via a daemon steal *)
    | Gone of int  (* site: freed frame was reused; contents only on swap *)

  type page = { mutable st : pstate }

  (* Int-specialized hash tables for the two hot lookups ([page] on every
     fault/touch event, [site_stats] on every charge).  The generic functorial
     interface with an int key avoids the polymorphic-hash dispatch and the
     (pid, vpn) tuple allocation per lookup. *)
  module Itbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end)

  (* (owner pid, vpn) packed into one immediate int.  40 bits of vpn is
     orders of magnitude beyond any simulated address space; pids are small
     non-negative stream ids. *)
  let page_key ~pid ~vpn = (pid lsl 40) lor vpn

  type site_stats = {
    mutable pf_sent : int;
    mutable pf_issued : int;
    mutable pf_dropped : int;
    mutable pf_raced : int;
    mutable pf_done : int;
    mutable pf_referenced : int;
    mutable pf_useless : int;
    mutable pf_late : int;
    mutable pf_saved_ns : int;
    mutable rel_hints : int;
    mutable rel_filtered : int;
    mutable rel_buffered : int;
    mutable rel_stale : int;
    mutable rel_sent : int;
    mutable rel_skipped : int;
    mutable rel_freed : int;
    mutable rel_rescued : int;
    mutable rel_refaulted : int;
    mutable rel_reused : int;
    mutable rel_unreclaimed : int;
    mutable priority_sum : int;
    mutable priority_n : int;
  }

  type t = {
    l_enabled : bool;
    pages : page Itbl.t;  (* [page_key] -> state *)
    sites : site_stats Itbl.t;
    (* Global tallies, used to reconcile against Vm_stats. *)
    mutable hard_faults : int;
    mutable soft_faults : int;
    mutable validation_faults : int;
    mutable zero_fills : int;
    mutable rescues : int;
    mutable prefetches_issued : int;
    mutable prefetches_dropped : int;
    mutable releases_freed : int;
    mutable releases_skipped : int;
    (* Taxonomy totals (also derivable from the site table; kept as running
       counters so the summary is O(sites)). *)
    mutable useless_prefetches : int;
    mutable late_prefetches : int;
    mutable early_rescued : int;
    mutable early_refaulted : int;
    mutable useful_releases : int;
    (* Cross-tier transitions (tiered backing store; zero without --tiers). *)
    mutable tier_demotions : int;
    mutable tier_fetches : int;
    mutable tier_failovers : int;
    mutable tier_rescues : int;
  }

  let create () =
    {
      l_enabled = true;
      pages = Itbl.create 4096;
      sites = Itbl.create 64;
      hard_faults = 0;
      soft_faults = 0;
      validation_faults = 0;
      zero_fills = 0;
      rescues = 0;
      prefetches_issued = 0;
      prefetches_dropped = 0;
      releases_freed = 0;
      releases_skipped = 0;
      useless_prefetches = 0;
      late_prefetches = 0;
      early_rescued = 0;
      early_refaulted = 0;
      useful_releases = 0;
      tier_demotions = 0;
      tier_fetches = 0;
      tier_failovers = 0;
      tier_rescues = 0;
    }


  let site_stats t site =
    match Itbl.find_opt t.sites site with
    | Some s -> s
    | None ->
        let s =
          {
            pf_sent = 0;
            pf_issued = 0;
            pf_dropped = 0;
            pf_raced = 0;
            pf_done = 0;
            pf_referenced = 0;
            pf_useless = 0;
            pf_late = 0;
            pf_saved_ns = 0;
            rel_hints = 0;
            rel_filtered = 0;
            rel_buffered = 0;
            rel_stale = 0;
            rel_sent = 0;
            rel_skipped = 0;
            rel_freed = 0;
            rel_rescued = 0;
            rel_refaulted = 0;
            rel_reused = 0;
            rel_unreclaimed = 0;
            priority_sum = 0;
            priority_n = 0;
          }
        in
        Itbl.add t.sites site s;
        s

  let page t ~pid ~vpn =
    let key = page_key ~pid ~vpn in
    match Itbl.find_opt t.pages key with
    | Some p -> p
    | None ->
        let p = { st = Not_resident } in
        Itbl.add t.pages key p;
        p

  (* A prefetched-but-unreferenced page leaving residency (or being released)
     makes its prefetch useless; charge the prefetching site. *)
  let charge_useless t site =
    (site_stats t site).pf_useless <- (site_stats t site).pf_useless + 1;
    t.useless_prefetches <- t.useless_prefetches + 1

  (* A reference arriving at a page a directive released earlier: cheap if the
     page is still on the free list (rescue), expensive if the frame is gone
     (hard refault).  Charge the releasing site. *)
  let charge_rescued t site =
    (site_stats t site).rel_rescued <- (site_stats t site).rel_rescued + 1;
    t.early_rescued <- t.early_rescued + 1

  let charge_refaulted t site =
    (site_stats t site).rel_refaulted <- (site_stats t site).rel_refaulted + 1;
    t.early_refaulted <- t.early_refaulted + 1

  let observe t ~time:_ ~stream ev =
    if t.l_enabled then
      match (ev : Trace.event) with
      (* ---- demand faults (stream = faulting pid) ---- *)
      | Hard_fault { vpn } ->
          t.hard_faults <- t.hard_faults + 1;
          let p = page t ~pid:stream ~vpn in
          (match p.st with
          | Pf_sent site | Pf_inflight site ->
              let s = site_stats t site in
              s.pf_late <- s.pf_late + 1;
              t.late_prefetches <- t.late_prefetches + 1
          | Released site | Freed site | Gone site ->
              if site <> Trace.no_site then charge_refaulted t site
          | Prefetched { site; _ } -> charge_useless t site
          | Not_resident | Resident | Freed_daemon -> ());
          p.st <- Resident
      | Soft_fault { vpn } ->
          t.soft_faults <- t.soft_faults + 1;
          let p = page t ~pid:stream ~vpn in
          (match p.st with
          | Prefetched { site; ns } ->
              (* invalidated before validation; the touch still profits *)
              let s = site_stats t site in
              s.pf_referenced <- s.pf_referenced + 1;
              s.pf_saved_ns <- s.pf_saved_ns + ns
          | _ -> ());
          p.st <- Resident
      | Validation_fault { vpn } ->
          t.validation_faults <- t.validation_faults + 1;
          let p = page t ~pid:stream ~vpn in
          (match p.st with
          | Prefetched { site; ns } ->
              let s = site_stats t site in
              s.pf_referenced <- s.pf_referenced + 1;
              s.pf_saved_ns <- s.pf_saved_ns + ns
          | _ -> ());
          p.st <- Resident
      | Zero_fill { vpn } ->
          t.zero_fills <- t.zero_fills + 1;
          (page t ~pid:stream ~vpn).st <- Resident
      | Rescue { vpn; for_prefetch; site } ->
          t.rescues <- t.rescues + 1;
          let p = page t ~pid:stream ~vpn in
          (* [site] is the site whose release freed the frame (no_site for a
             daemon steal); the ledger's own state agrees when the rescue is
             attributable. *)
          (match p.st with
          | Freed s | Released s | Gone s ->
              let s = if site <> Trace.no_site then site else s in
              if s <> Trace.no_site then charge_rescued t s
          | _ -> if site <> Trace.no_site then charge_rescued t site);
          (* A demand rescue leaves the page resident; a prefetch rescue will
             be followed by Prefetch_done, which takes the state over. *)
          if not for_prefetch then p.st <- Resident
      (* ---- prefetch pipeline (stream = prefetching pid) ---- *)
      | Rt_prefetch_sent { vpn; site } ->
          (site_stats t site).pf_sent <- (site_stats t site).pf_sent + 1;
          let p = page t ~pid:stream ~vpn in
          (match p.st with
          | Not_resident | Freed _ | Freed_daemon | Gone _ | Pf_sent _
          | Pf_inflight _ | Released _ ->
              p.st <- Pf_sent site
          | Resident | Prefetched _ -> ())
      | Prefetch_issued { vpn; site } ->
          t.prefetches_issued <- t.prefetches_issued + 1;
          (site_stats t site).pf_issued <- (site_stats t site).pf_issued + 1;
          (page t ~pid:stream ~vpn).st <- Pf_inflight site
      | Prefetch_dropped { vpn; site } ->
          t.prefetches_dropped <- t.prefetches_dropped + 1;
          (site_stats t site).pf_dropped <- (site_stats t site).pf_dropped + 1;
          let p = page t ~pid:stream ~vpn in
          (match p.st with Pf_sent _ | Pf_inflight _ -> p.st <- Not_resident | _ -> ())
      | Prefetch_raced { vpn; site } ->
          (site_stats t site).pf_raced <- (site_stats t site).pf_raced + 1;
          let p = page t ~pid:stream ~vpn in
          (match p.st with Pf_sent _ | Pf_inflight _ -> p.st <- Resident | _ -> ())
      | Prefetch_done { vpn; site; ns } ->
          (site_stats t site).pf_done <- (site_stats t site).pf_done + 1;
          (page t ~pid:stream ~vpn).st <- Prefetched { site; ns }
      (* ---- release pipeline ---- *)
      | Rt_release_hint { vpn = _; site; priority } ->
          let s = site_stats t site in
          s.rel_hints <- s.rel_hints + 1;
          s.priority_sum <- s.priority_sum + priority;
          s.priority_n <- s.priority_n + 1
      | Rt_release_filtered { site; _ } ->
          (site_stats t site).rel_filtered <- (site_stats t site).rel_filtered + 1
      | Rt_release_buffered { tag; _ } ->
          (site_stats t tag).rel_buffered <- (site_stats t tag).rel_buffered + 1
      | Rt_stale_dropped { site; _ } ->
          (site_stats t site).rel_stale <- (site_stats t site).rel_stale + 1
      | Rt_release_sent { vpn; site } ->
          (site_stats t site).rel_sent <- (site_stats t site).rel_sent + 1;
          let p = page t ~pid:stream ~vpn in
          (match p.st with
          | Prefetched { site = pf; _ } ->
              charge_useless t pf;
              p.st <- Released site
          | Resident | Not_resident | Released _ -> p.st <- Released site
          | _ -> ())
      | Release_skipped { vpn; owner; site } ->
          t.releases_skipped <- t.releases_skipped + 1;
          (site_stats t site).rel_skipped <- (site_stats t site).rel_skipped + 1;
          (page t ~pid:owner ~vpn).st <- Resident
      | Releaser_free { vpn; owner; site } ->
          t.releases_freed <- t.releases_freed + 1;
          (site_stats t site).rel_freed <- (site_stats t site).rel_freed + 1;
          (page t ~pid:owner ~vpn).st <- Freed site
      | Daemon_steal { vpn; owner } ->
          let p = page t ~pid:owner ~vpn in
          (match p.st with
          | Prefetched { site; _ } -> charge_useless t site
          | _ -> ());
          p.st <- Freed_daemon
      | Daemon_invalidate _ | Writeback_complete _ -> ()
      | Frame_reused { vpn; owner } ->
          let p = page t ~pid:owner ~vpn in
          (match p.st with
          | Freed site ->
              if site <> Trace.no_site then begin
                let s = site_stats t site in
                s.rel_reused <- s.rel_reused + 1;
                t.useful_releases <- t.useful_releases + 1
              end;
              p.st <- Gone site
          | Freed_daemon -> p.st <- Not_resident
          | _ -> ())
      (* ---- cross-tier transitions (tiered backing store) ---- *)
      | Tier_demote _ -> t.tier_demotions <- t.tier_demotions + 1
      | Tier_fetch _ -> t.tier_fetches <- t.tier_fetches + 1
      | Tier_failover _ -> t.tier_failovers <- t.tier_failovers + 1
      | Tier_rescue _ -> t.tier_rescues <- t.tier_rescues + 1
      (* ---- everything else is not page-lifecycle material ---- *)
      | Release_requested _ | Rt_release_issued _ | Rt_release_drained _
      | Disk_io _ | Free_depth _ | Rss_sample _ | Upper_limit_sample _
      | Queue_depth _ | Phase_begin _ | Phase_end _ | Chaos_disk_fault _
      | Chaos_stall _ | Chaos_drop_directive _ | Chaos_pressure _
      | Chaos_pressure_end _ | Governor_transition _ | Tier_timeout _
      | Breaker_transition _ | Alert_fire _ | Alert_clear _ ->
          ()

  let summarize t =
    let final = Itbl.create (Int.max 1 (Itbl.length t.sites)) in
    Itbl.iter
      (fun site s ->
        Itbl.replace final site
          {
            s with
            pf_sent = s.pf_sent (* force a copy of the mutable record *);
          })
      t.sites;
    let final_stats site =
      match Itbl.find_opt final site with
      | Some s -> s
      | None ->
          let s =
            {
              pf_sent = 0;
              pf_issued = 0;
              pf_dropped = 0;
              pf_raced = 0;
              pf_done = 0;
              pf_referenced = 0;
              pf_useless = 0;
              pf_late = 0;
              pf_saved_ns = 0;
              rel_hints = 0;
              rel_filtered = 0;
              rel_buffered = 0;
              rel_stale = 0;
              rel_sent = 0;
              rel_skipped = 0;
              rel_freed = 0;
              rel_rescued = 0;
              rel_refaulted = 0;
              rel_reused = 0;
              rel_unreclaimed = 0;
              priority_sum = 0;
              priority_n = 0;
            }
          in
          Itbl.add final site s;
          s
    in
    let useless = ref t.useless_prefetches in
    let unnecessary = ref 0 in
    Itbl.iter
      (fun _ p ->
        match p.st with
        | Prefetched { site; _ } ->
            let s = final_stats site in
            s.pf_useless <- s.pf_useless + 1;
            incr useless
        | Freed site ->
            (* never rescued, never refaulted, never reused: the free did no
               work for anybody *)
            if site <> Trace.no_site then begin
              let s = final_stats site in
              s.rel_unreclaimed <- s.rel_unreclaimed + 1
            end;
            incr unnecessary
        | _ -> ())
      t.pages;
    let rows =
      Itbl.fold
        (fun site s acc ->
          {
            Ledger.sr_site = site;
            sr_pf_sent = s.pf_sent;
            sr_pf_issued = s.pf_issued;
            sr_pf_dropped = s.pf_dropped;
            sr_pf_raced = s.pf_raced;
            sr_pf_done = s.pf_done;
            sr_pf_referenced = s.pf_referenced;
            sr_pf_useless = s.pf_useless;
            sr_pf_late = s.pf_late;
            sr_pf_saved_ns = s.pf_saved_ns;
            sr_rel_hints = s.rel_hints;
            sr_rel_filtered = s.rel_filtered;
            sr_rel_buffered = s.rel_buffered;
            sr_rel_stale = s.rel_stale;
            sr_rel_sent = s.rel_sent;
            sr_rel_skipped = s.rel_skipped;
            sr_rel_freed = s.rel_freed;
            sr_rel_rescued = s.rel_rescued;
            sr_rel_refaulted = s.rel_refaulted;
            sr_rel_reused = s.rel_reused;
            sr_rel_unreclaimed = s.rel_unreclaimed;
            sr_priority_sum = s.priority_sum;
            sr_priority_n = s.priority_n;
          }
          :: acc)
        final []
      |> List.sort (fun a b -> compare a.Ledger.sr_site b.Ledger.sr_site)
    in
    {
      Ledger.ls_sites = rows;
      ls_pages_tracked = Itbl.length t.pages;
      ls_useless_prefetches = !useless;
      ls_late_prefetches = t.late_prefetches;
      ls_early_rescued = t.early_rescued;
      ls_early_refaulted = t.early_refaulted;
      ls_useful_releases = t.useful_releases;
      ls_unnecessary_releases = !unnecessary;
      ls_hard_faults = t.hard_faults;
      ls_soft_faults = t.soft_faults;
      ls_validation_faults = t.validation_faults;
      ls_zero_fills = t.zero_fills;
      ls_rescues = t.rescues;
      ls_prefetches_issued = t.prefetches_issued;
      ls_prefetches_dropped = t.prefetches_dropped;
      ls_releases_freed = t.releases_freed;
      ls_releases_skipped = t.releases_skipped;
      ls_tier_demotions = t.tier_demotions;
      ls_tier_fetches = t.tier_fetches;
      ls_tier_failovers = t.tier_failovers;
      ls_tier_rescues = t.tier_rescues;
    }
end

(* ------------------------------------------------------------------ *)
(* Property: observe is total, the summary legal, summarize pure       *)
(* ------------------------------------------------------------------ *)

(* A small alphabet (few vpns, sites, owners) maximizes state-machine
   collisions: prefetches over releases, rescues of never-freed pages,
   frees of never-released pages, ...  One vpn in five is drawn up to
   5,000 instead, so the per-process state arrays must grow mid-stream. *)
let event_gen =
  let open QCheck.Gen in
  let vpn = frequency [ (4, int_bound 7); (1, int_bound 5_000) ] in
  let site = map (fun s -> s - 1) (int_bound 6) (* -1 .. 5 *) in
  let owner = int_bound 2 in
  let stream = int_bound 2 in
  let ns = int_bound 10_000 in
  let ev =
    frequency
      [
        (3, map (fun vpn -> Trace.Hard_fault { vpn }) vpn);
        (2, map (fun vpn -> Trace.Soft_fault { vpn }) vpn);
        (2, map (fun vpn -> Trace.Validation_fault { vpn }) vpn);
        (1, map (fun vpn -> Trace.Zero_fill { vpn }) vpn);
        ( 2,
          map3
            (fun vpn for_prefetch site ->
              Trace.Rescue { vpn; for_prefetch; site })
            vpn bool site );
        (3, map2 (fun vpn site -> Trace.Rt_prefetch_sent { vpn; site }) vpn site);
        (3, map2 (fun vpn site -> Trace.Prefetch_issued { vpn; site }) vpn site);
        (2, map2 (fun vpn site -> Trace.Prefetch_dropped { vpn; site }) vpn site);
        (1, map2 (fun vpn site -> Trace.Prefetch_raced { vpn; site }) vpn site);
        ( 3,
          map3 (fun vpn site ns -> Trace.Prefetch_done { vpn; site; ns }) vpn
            site ns );
        ( 2,
          map3
            (fun vpn site priority -> Trace.Rt_release_hint { vpn; site; priority })
            vpn site (int_bound 5) );
        ( 1,
          map2
            (fun vpn site -> Trace.Rt_release_filtered { vpn; reason = "same"; site })
            vpn site );
        ( 1,
          map3
            (fun vpn tag priority -> Trace.Rt_release_buffered { vpn; tag; priority })
            vpn (int_bound 3) (int_bound 5) );
        (1, map2 (fun vpn site -> Trace.Rt_stale_dropped { vpn; site }) vpn site);
        (3, map2 (fun vpn site -> Trace.Rt_release_sent { vpn; site }) vpn site);
        ( 2,
          map3 (fun vpn owner site -> Trace.Release_skipped { vpn; owner; site })
            vpn owner site );
        ( 3,
          map3 (fun vpn owner site -> Trace.Releaser_free { vpn; owner; site })
            vpn owner site );
        (2, map2 (fun vpn owner -> Trace.Daemon_steal { vpn; owner }) vpn owner);
        (2, map2 (fun vpn owner -> Trace.Frame_reused { vpn; owner }) vpn owner);
        (1, map (fun count -> Trace.Rt_release_issued { count }) (int_bound 9));
        (1, map (fun pages -> Trace.Free_depth { pages }) (int_bound 99));
      ]
  in
  pair stream ev

let events_arb =
  QCheck.make
    ~print:(fun evs ->
      String.concat ";"
        (List.map (fun (s, ev) -> Printf.sprintf "%d:%s" s (fst (Trace.describe ev))) evs))
    QCheck.Gen.(list_size (0 -- 400) event_gen)

let prop_observe_total_and_legal =
  QCheck.Test.make
    ~name:"observe never raises; summary legal from any interleaving"
    ~count:500 events_arb (fun evs ->
      let l = Ledger.create () in
      List.iteri
        (fun i (stream, ev) -> Ledger.observe l ~time:(i * 10) ~stream ev)
        evs;
      let s1 = Ledger.summarize l in
      (* a deep copy made without the code under test *)
      let kept : Ledger.summary = Marshal.(from_string (to_string s1 [])) 0 in
      scribble s1;
      Ledger.invariants_ok kept && Ledger.summarize l = kept)

let prop_matches_reference =
  QCheck.Test.make ~name:"summary equals the hash-table reference ledger"
    ~count:500 events_arb (fun evs ->
      let l = Ledger.create () and r = Ref.create () in
      List.iteri
        (fun i (stream, ev) ->
          Ledger.observe l ~time:(i * 10) ~stream ev;
          Ref.observe r ~time:(i * 10) ~stream ev)
        evs;
      Ledger.summarize l = Ref.summarize r)

(* Pages are keyed by array index: a negative pid or vpn has no slot. *)
let test_negative_page_rejected () =
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  let l = Ledger.create () in
  raises "negative pid" (fun () ->
      Ledger.observe l ~time:0 ~stream:(-1) (Trace.Hard_fault { vpn = 3 }));
  raises "negative vpn" (fun () ->
      Ledger.observe l ~time:0 ~stream:0 (Trace.Zero_fill { vpn = -2 }));
  raises "negative owner" (fun () ->
      Ledger.observe l ~time:0 ~stream:Trace.daemon_stream
        (Trace.Daemon_steal { vpn = 1; owner = -4 }));
  (* A daemon stream is fine where the page is named by its owner. *)
  Ledger.observe l ~time:0 ~stream:Trace.releaser_stream
    (Trace.Releaser_free { vpn = 1; owner = 0; site = 2 });
  check_int "one page tracked" 1 (Ledger.summarize l).Ledger.ls_pages_tracked

let () =
  Alcotest.run "memhog_ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "null and empty" `Quick test_null_and_empty;
          Alcotest.test_case "reconciles with Vm_stats" `Quick
            test_reconciles_with_vm_stats;
          Alcotest.test_case "--jobs 1 == --jobs 8 (byte-identical)" `Quick
            test_jobs_determinism;
          Alcotest.test_case "negative pid or vpn rejected" `Quick
            test_negative_page_rejected;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_observe_total_and_legal; prop_matches_reference ]
      );
    ]

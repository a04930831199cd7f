(* Per-page lifecycle ledger with causal attribution to directive sites.

   The ledger consumes the same typed events the Trace ring sees, but at the
   emit point rather than by replaying the ring, so ring capacity and
   overflow never truncate it.  For every (owner pid, vpn) it tracks a small
   lifecycle state machine and charges each transition to the static
   directive site (Pir.d_tag) that caused it; the residue is the wasted-work
   taxonomy the paper derives by hand.

   Determinism: the ledger is driven purely by simulated-time events inside
   one experiment cell, performs no Engine interaction, and its summary
   sorts all tables — so the output is byte-identical at any --jobs. *)

(* Page states, one int per (owner pid, vpn): the lifecycle tag in the low
   four bits and the directive site above them (arithmetic shift, so
   [no_site] = -1 round-trips).  [Prefetched] also keeps the fetch's I/O
   span, in the parallel [ns] arrays.  [unseen] marks a page no event has
   named yet; the first lookup turns it into [not_resident] and counts it
   in [ls_pages_tracked]. *)
let unseen = 0
let not_resident = 1
let pf_sent = 2  (* intent accepted by the run-time layer *)
let pf_inflight = 3  (* OS started the asynchronous fetch *)
let prefetched = 4  (* resident via a completed prefetch, not yet referenced *)
let resident = 5
let released = 6  (* release forwarded to the OS, not yet freed *)
let freed = 7  (* on the free list via the releaser *)
let freed_daemon = 8  (* on the free list via a daemon steal *)
let gone = 9  (* freed frame was reused; contents only on swap *)
let[@inline] state tag site = tag lor (site lsl 4)
let[@inline] tag_of st = st land 15
let[@inline] site_of st = st asr 4

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

let new_stats () =
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

(* Marks an empty slot of the site table; never charged. *)
let no_row = new_stats ()

type t = {
  l_enabled : bool;
  (* Pid-indexed, then vpn-indexed; pids and vpns are dense from 0. *)
  mutable states : int array array;
  mutable ns : int array array;
  mutable pages_tracked : int;
  (* Indexed by site + 1, so [no_site] is slot 0; [no_row] when unused. *)
  mutable sites : site_stats array;
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

let make ~enabled =
  {
    l_enabled = enabled;
    states = [||];
    ns = [||];
    pages_tracked = 0;
    sites = [||];
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

let create () = make ~enabled:true
let null = make ~enabled:false
let enabled t = t.l_enabled
let refaults t = t.early_refaulted
let early_rescues t = t.early_rescued

(* Grow [a] (doubling) so that index [i] fits, filling with [fill]. *)
let grown a i fill =
  let b = Array.make (Int.max (i + 1) (Int.max 64 (2 * Array.length a))) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let site_stats t site =
  if site < Trace.no_site then
    invalid_arg (Printf.sprintf "Ledger.observe: site %d" site);
  let i = site + 1 in
  if i >= Array.length t.sites then t.sites <- grown t.sites i no_row;
  let s = t.sites.(i) in
  if s != no_row then s
  else begin
    let s = new_stats () in
    t.sites.(i) <- s;
    s
  end

(* The state array holding page (pid, vpn), grown to cover it; the page
   is counted the first time any event names it. *)
let page t ~pid ~vpn =
  if pid < 0 || vpn < 0 then
    invalid_arg (Printf.sprintf "Ledger.observe: page (%d, %d)" pid vpn);
  if pid >= Array.length t.states then begin
    t.states <- grown t.states pid [||];
    t.ns <- grown t.ns pid [||]
  end;
  let a = t.states.(pid) in
  let a =
    if vpn < Array.length a then a
    else begin
      let a = grown a vpn unseen in
      t.states.(pid) <- a;
      t.ns.(pid) <- grown t.ns.(pid) vpn 0;
      a
    end
  in
  if a.(vpn) = unseen then begin
    a.(vpn) <- not_resident;
    t.pages_tracked <- t.pages_tracked + 1
  end;
  a

(* A prefetched-but-unreferenced page leaving residency (or being released)
   makes its prefetch useless; charge the prefetching site. *)
let charge_useless t site =
  let s = site_stats t site in
  s.pf_useless <- s.pf_useless + 1;
  t.useless_prefetches <- t.useless_prefetches + 1

(* A reference arriving at a page a directive released earlier: cheap if the
   page is still on the free list (rescue), expensive if the frame is gone
   (hard refault).  Charge the releasing site. *)
let charge_rescued t site =
  let s = site_stats t site in
  s.rel_rescued <- s.rel_rescued + 1;
  t.early_rescued <- t.early_rescued + 1

let charge_refaulted t site =
  let s = site_stats t site in
  s.rel_refaulted <- s.rel_refaulted + 1;
  t.early_refaulted <- t.early_refaulted + 1

(* A referencing fault on a page still [Prefetched]: the touch profits. *)
let credit_prefetch t ~pid st vpn =
  if tag_of st = prefetched then begin
    let s = site_stats t (site_of st) in
    s.pf_referenced <- s.pf_referenced + 1;
    s.pf_saved_ns <- s.pf_saved_ns + t.ns.(pid).(vpn)
  end

let observe t ~time:_ ~stream ev =
  if t.l_enabled then
    match (ev : Trace.event) with
    (* ---- demand faults (stream = faulting pid) ---- *)
    | Hard_fault { vpn } ->
        t.hard_faults <- t.hard_faults + 1;
        let a = page t ~pid:stream ~vpn in
        let st = a.(vpn) in
        let tag = tag_of st and site = site_of st in
        if tag = pf_sent || tag = pf_inflight then begin
          let s = site_stats t site in
          s.pf_late <- s.pf_late + 1;
          t.late_prefetches <- t.late_prefetches + 1
        end
        else if tag = released || tag = freed || tag = gone then begin
          if site <> Trace.no_site then charge_refaulted t site
        end
        else if tag = prefetched then charge_useless t site;
        a.(vpn) <- resident
    | Soft_fault { vpn } ->
        (* invalidated before validation; a prefetched page still profits *)
        t.soft_faults <- t.soft_faults + 1;
        let a = page t ~pid:stream ~vpn in
        credit_prefetch t ~pid:stream a.(vpn) vpn;
        a.(vpn) <- resident
    | Validation_fault { vpn } ->
        t.validation_faults <- t.validation_faults + 1;
        let a = page t ~pid:stream ~vpn in
        credit_prefetch t ~pid:stream a.(vpn) vpn;
        a.(vpn) <- resident
    | Zero_fill { vpn } ->
        t.zero_fills <- t.zero_fills + 1;
        (page t ~pid:stream ~vpn).(vpn) <- resident
    | Rescue { vpn; for_prefetch; site } ->
        t.rescues <- t.rescues + 1;
        let a = page t ~pid:stream ~vpn in
        let st = a.(vpn) in
        let tag = tag_of st in
        (* [site] is the site whose release freed the frame (no_site for a
           daemon steal); the ledger's own state agrees when the rescue is
           attributable. *)
        (if tag = freed || tag = released || tag = gone then begin
           let s = if site <> Trace.no_site then site else site_of st in
           if s <> Trace.no_site then charge_rescued t s
         end
         else if site <> Trace.no_site then charge_rescued t site);
        (* A demand rescue leaves the page resident; a prefetch rescue will
           be followed by Prefetch_done, which takes the state over. *)
        if not for_prefetch then a.(vpn) <- resident
    (* ---- prefetch pipeline (stream = prefetching pid) ---- *)
    | Rt_prefetch_sent { vpn; site } ->
        let s = site_stats t site in
        s.pf_sent <- s.pf_sent + 1;
        let a = page t ~pid:stream ~vpn in
        let tag = tag_of a.(vpn) in
        if not (tag = resident || tag = prefetched) then
          a.(vpn) <- state pf_sent site
    | Prefetch_issued { vpn; site } ->
        t.prefetches_issued <- t.prefetches_issued + 1;
        let s = site_stats t site in
        s.pf_issued <- s.pf_issued + 1;
        (page t ~pid:stream ~vpn).(vpn) <- state pf_inflight site
    | Prefetch_dropped { vpn; site } ->
        t.prefetches_dropped <- t.prefetches_dropped + 1;
        let s = site_stats t site in
        s.pf_dropped <- s.pf_dropped + 1;
        let a = page t ~pid:stream ~vpn in
        let tag = tag_of a.(vpn) in
        if tag = pf_sent || tag = pf_inflight then a.(vpn) <- not_resident
    | Prefetch_raced { vpn; site } ->
        let s = site_stats t site in
        s.pf_raced <- s.pf_raced + 1;
        let a = page t ~pid:stream ~vpn in
        let tag = tag_of a.(vpn) in
        if tag = pf_sent || tag = pf_inflight then a.(vpn) <- resident
    | Prefetch_done { vpn; site; ns } ->
        let s = site_stats t site in
        s.pf_done <- s.pf_done + 1;
        (page t ~pid:stream ~vpn).(vpn) <- state prefetched site;
        t.ns.(stream).(vpn) <- ns
    (* ---- release pipeline ---- *)
    | Rt_release_hint { vpn = _; site; priority } ->
        let s = site_stats t site in
        s.rel_hints <- s.rel_hints + 1;
        s.priority_sum <- s.priority_sum + priority;
        s.priority_n <- s.priority_n + 1
    | Rt_release_filtered { site; _ } ->
        let s = site_stats t site in
        s.rel_filtered <- s.rel_filtered + 1
    | Rt_release_buffered { tag; _ } ->
        let s = site_stats t tag in
        s.rel_buffered <- s.rel_buffered + 1
    | Rt_stale_dropped { site; _ } ->
        let s = site_stats t site in
        s.rel_stale <- s.rel_stale + 1
    | Rt_release_sent { vpn; site } ->
        let s = site_stats t site in
        s.rel_sent <- s.rel_sent + 1;
        let a = page t ~pid:stream ~vpn in
        let st = a.(vpn) in
        let tag = tag_of st in
        if tag = prefetched then begin
          charge_useless t (site_of st);
          a.(vpn) <- state released site
        end
        else if tag = resident || tag = not_resident || tag = released then
          a.(vpn) <- state released site
    | Release_skipped { vpn; owner; site } ->
        t.releases_skipped <- t.releases_skipped + 1;
        let s = site_stats t site in
        s.rel_skipped <- s.rel_skipped + 1;
        (page t ~pid:owner ~vpn).(vpn) <- resident
    | Releaser_free { vpn; owner; site } ->
        t.releases_freed <- t.releases_freed + 1;
        let s = site_stats t site in
        s.rel_freed <- s.rel_freed + 1;
        (page t ~pid:owner ~vpn).(vpn) <- state freed site
    | Daemon_steal { vpn; owner } ->
        let a = page t ~pid:owner ~vpn in
        let st = a.(vpn) in
        if tag_of st = prefetched then charge_useless t (site_of st);
        a.(vpn) <- freed_daemon
    | Daemon_invalidate _ | Writeback_complete _ -> ()
    | Frame_reused { vpn; owner } ->
        let a = page t ~pid:owner ~vpn in
        let st = a.(vpn) in
        let tag = tag_of st in
        if tag = freed then begin
          let site = site_of st in
          if site <> Trace.no_site then begin
            let s = site_stats t site in
            s.rel_reused <- s.rel_reused + 1;
            t.useful_releases <- t.useful_releases + 1
          end;
          a.(vpn) <- state gone site
        end
        else if tag = freed_daemon then a.(vpn) <- not_resident
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

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

type site_row = {
  sr_site : int;
  sr_pf_sent : int;
  sr_pf_issued : int;
  sr_pf_dropped : int;
  sr_pf_raced : int;
  sr_pf_done : int;
  sr_pf_referenced : int;
  sr_pf_useless : int;
  sr_pf_late : int;
  sr_pf_saved_ns : int;
  sr_rel_hints : int;
  sr_rel_filtered : int;
  sr_rel_buffered : int;
  sr_rel_stale : int;
  sr_rel_sent : int;
  sr_rel_skipped : int;
  sr_rel_freed : int;
  sr_rel_rescued : int;
  sr_rel_refaulted : int;
  sr_rel_reused : int;
  sr_rel_unreclaimed : int;
  sr_priority_mean : float;  (* mean Eq. 2 priority of this site's hints *)
  sr_refault_pct : float;  (* (rescued + refaulted) / freed, percent *)
}

type summary = {
  ls_sites : site_row list;  (* ascending site id; no_site row first *)
  ls_pages_tracked : int;
  ls_useless_prefetches : int;
  ls_late_prefetches : int;
  ls_early_rescued : int;
  ls_early_refaulted : int;
  ls_useful_releases : int;
  ls_unnecessary_releases : int;
  ls_hard_faults : int;
  ls_soft_faults : int;
  ls_validation_faults : int;
  ls_zero_fills : int;
  ls_rescues : int;
  ls_prefetches_issued : int;
  ls_prefetches_dropped : int;
  ls_releases_freed : int;
  ls_releases_skipped : int;
  ls_tier_demotions : int;
  ls_tier_fetches : int;
  ls_tier_failovers : int;
  ls_tier_rescues : int;
}

(* Close out the run: pages still sitting in a terminal-ish state become
   taxonomy residue.  Charges go to a copy of the site table so [summarize]
   is safe to call more than once (it never mutates the live ledger). *)
let summarize t =
  let final =
    Array.map
      (fun s -> if s == no_row then s else { s with pf_sent = s.pf_sent })
      t.sites
  in
  let useless = ref t.useless_prefetches in
  let unnecessary = ref 0 in
  Array.iter
    (Array.iter (fun st ->
         let tag = tag_of st and site = site_of st in
         if tag = prefetched then begin
           let s = final.(site + 1) in
           s.pf_useless <- s.pf_useless + 1;
           incr useless
         end
         else if tag = freed then begin
           (* never rescued, never refaulted, never reused: the free did no
              work for anybody *)
           if site <> Trace.no_site then begin
             let s = final.(site + 1) in
             s.rel_unreclaimed <- s.rel_unreclaimed + 1
           end;
           incr unnecessary
         end))
    t.states;
  let rows = ref [] in
  for i = Array.length final - 1 downto 0 do
    let s = final.(i) in
    if s != no_row then
      rows :=
        {
          sr_site = i - 1;
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
          sr_priority_mean =
            (if s.priority_n = 0 then 0.
             else float_of_int s.priority_sum /. float_of_int s.priority_n);
          sr_refault_pct =
            (if s.rel_freed = 0 then 0.
             else
               100.
               *. float_of_int (s.rel_rescued + s.rel_refaulted)
               /. float_of_int s.rel_freed);
        }
        :: !rows
  done;
  {
    ls_sites = !rows;
    ls_pages_tracked = t.pages_tracked;
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

let empty_summary = summarize null

(* Structural invariants on a summary; used by the qcheck legality property:
   whatever the event interleaving, [observe] must keep these true. *)
let invariants_ok sum =
  let row_ok r =
    r.sr_pf_sent >= 0 && r.sr_pf_issued >= 0 && r.sr_pf_dropped >= 0
    && r.sr_pf_raced >= 0 && r.sr_pf_done >= 0 && r.sr_pf_referenced >= 0
    && r.sr_pf_useless >= 0 && r.sr_pf_late >= 0 && r.sr_pf_saved_ns >= 0
    && r.sr_rel_hints >= 0 && r.sr_rel_filtered >= 0 && r.sr_rel_buffered >= 0
    && r.sr_rel_stale >= 0 && r.sr_rel_sent >= 0 && r.sr_rel_skipped >= 0
    && r.sr_rel_freed >= 0 && r.sr_rel_rescued >= 0 && r.sr_rel_refaulted >= 0
    && r.sr_rel_reused >= 0 && r.sr_rel_unreclaimed >= 0
    (* a page can only be reused or left unreclaimed after being freed *)
    && r.sr_rel_reused <= r.sr_rel_freed
    && r.sr_rel_unreclaimed <= r.sr_rel_freed
  in
  List.for_all row_ok sum.ls_sites
  && sum.ls_pages_tracked >= 0
  && sum.ls_useless_prefetches >= 0
  && sum.ls_late_prefetches >= 0
  && sum.ls_early_rescued >= 0
  && sum.ls_early_refaulted >= 0
  && sum.ls_useful_releases >= 0
  && sum.ls_unnecessary_releases >= 0
  && sum.ls_prefetches_issued
     = List.fold_left (fun a r -> a + r.sr_pf_issued) 0 sum.ls_sites
  && sum.ls_prefetches_dropped
     = List.fold_left (fun a r -> a + r.sr_pf_dropped) 0 sum.ls_sites
  && sum.ls_releases_freed
     = List.fold_left (fun a r -> a + r.sr_rel_freed) 0 sum.ls_sites
  && sum.ls_releases_skipped
     = List.fold_left (fun a r -> a + r.sr_rel_skipped) 0 sum.ls_sites

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

type site_row = {
  sr_site : int;  (* directive tag; no_site = unattributed *)
  mutable sr_pf_sent : int;
  mutable sr_pf_issued : int;
  mutable sr_pf_dropped : int;
  mutable sr_pf_raced : int;
  mutable sr_pf_done : int;
  mutable sr_pf_referenced : int;
  mutable sr_pf_useless : int;
  mutable sr_pf_late : int;
  mutable sr_pf_saved_ns : int;
  mutable sr_rel_hints : int;
  mutable sr_rel_filtered : int;
  mutable sr_rel_buffered : int;
  mutable sr_rel_stale : int;
  mutable sr_rel_sent : int;
  mutable sr_rel_skipped : int;
  mutable sr_rel_freed : int;
  mutable sr_rel_rescued : int;
  mutable sr_rel_refaulted : int;
  mutable sr_rel_reused : int;
  mutable sr_rel_unreclaimed : int;
  mutable sr_priority_sum : int;
  mutable sr_priority_n : int;
}

type summary = {
  ls_sites : site_row list;  (* ascending site id; no_site row first *)
  mutable ls_pages_tracked : int;
  mutable ls_useless_prefetches : int;
  mutable ls_late_prefetches : int;
  mutable ls_early_rescued : int;
  mutable ls_early_refaulted : int;
  mutable ls_useful_releases : int;
  mutable ls_unnecessary_releases : int;
  mutable ls_hard_faults : int;
  mutable ls_soft_faults : int;
  mutable ls_validation_faults : int;
  mutable ls_zero_fills : int;
  mutable ls_rescues : int;
  mutable ls_prefetches_issued : int;
  mutable ls_prefetches_dropped : int;
  mutable ls_releases_freed : int;
  mutable ls_releases_skipped : int;
  mutable ls_tier_demotions : int;
  mutable ls_tier_fetches : int;
  mutable ls_tier_failovers : int;
  mutable ls_tier_rescues : int;
}

let new_row site =
  {
    sr_site = site;
    sr_pf_sent = 0;
    sr_pf_issued = 0;
    sr_pf_dropped = 0;
    sr_pf_raced = 0;
    sr_pf_done = 0;
    sr_pf_referenced = 0;
    sr_pf_useless = 0;
    sr_pf_late = 0;
    sr_pf_saved_ns = 0;
    sr_rel_hints = 0;
    sr_rel_filtered = 0;
    sr_rel_buffered = 0;
    sr_rel_stale = 0;
    sr_rel_sent = 0;
    sr_rel_skipped = 0;
    sr_rel_freed = 0;
    sr_rel_rescued = 0;
    sr_rel_refaulted = 0;
    sr_rel_reused = 0;
    sr_rel_unreclaimed = 0;
    sr_priority_sum = 0;
    sr_priority_n = 0;
  }

(* Marks an empty slot of the site table; never charged. *)
let no_row = new_row min_int

type t = {
  l_enabled : bool;
  (* Pid-indexed, then vpn-indexed; pids and vpns are dense from 0. *)
  mutable states : int array array;
  mutable ns : int array array;
  (* Indexed by site + 1, so [no_site] is slot 0; [no_row] when unused. *)
  mutable sites : site_row array;
  (* The run's tallies, counted in the record the summary reports.  Its
     [ls_sites] stays empty and [ls_unnecessary_releases] zero: both are
     close-out results, as is the useless-prefetch residue [summarize]
     adds to the running [ls_useless_prefetches]. *)
  counts : summary;
}

let make ~enabled =
  {
    l_enabled = enabled;
    states = [||];
    ns = [||];
    sites = [||];
    counts =
      {
        ls_sites = [];
        ls_pages_tracked = 0;
        ls_useless_prefetches = 0;
        ls_late_prefetches = 0;
        ls_early_rescued = 0;
        ls_early_refaulted = 0;
        ls_useful_releases = 0;
        ls_unnecessary_releases = 0;
        ls_hard_faults = 0;
        ls_soft_faults = 0;
        ls_validation_faults = 0;
        ls_zero_fills = 0;
        ls_rescues = 0;
        ls_prefetches_issued = 0;
        ls_prefetches_dropped = 0;
        ls_releases_freed = 0;
        ls_releases_skipped = 0;
        ls_tier_demotions = 0;
        ls_tier_fetches = 0;
        ls_tier_failovers = 0;
        ls_tier_rescues = 0;
      };
  }

let create () = make ~enabled:true
let null = make ~enabled:false
let enabled t = t.l_enabled
let refaults t = t.counts.ls_early_refaulted
let early_rescues t = t.counts.ls_early_rescued

(* Grow [a] (doubling) so that index [i] fits, filling with [fill]. *)
let grown a i fill =
  let b = Array.make (Int.max (i + 1) (Int.max 64 (2 * Array.length a))) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let row t site =
  if site < Trace.no_site then
    invalid_arg (Printf.sprintf "Ledger.observe: site %d" site);
  let i = site + 1 in
  if i >= Array.length t.sites then t.sites <- grown t.sites i no_row;
  let r = t.sites.(i) in
  if r != no_row then r
  else begin
    let r = new_row site in
    t.sites.(i) <- r;
    r
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
    t.counts.ls_pages_tracked <- t.counts.ls_pages_tracked + 1
  end;
  a

(* A prefetched-but-unreferenced page leaving residency (or being released)
   makes its prefetch useless; charge the prefetching site. *)
let charge_useless t site =
  let r = row t site in
  r.sr_pf_useless <- r.sr_pf_useless + 1;
  t.counts.ls_useless_prefetches <- t.counts.ls_useless_prefetches + 1

(* A reference arriving at a page a directive released earlier: cheap if the
   page is still on the free list (rescue), expensive if the frame is gone
   (hard refault).  Charge the releasing site. *)
let charge_rescued t site =
  let r = row t site in
  r.sr_rel_rescued <- r.sr_rel_rescued + 1;
  t.counts.ls_early_rescued <- t.counts.ls_early_rescued + 1

let charge_refaulted t site =
  let r = row t site in
  r.sr_rel_refaulted <- r.sr_rel_refaulted + 1;
  t.counts.ls_early_refaulted <- t.counts.ls_early_refaulted + 1

(* A referencing fault on a page still [Prefetched]: the touch profits. *)
let credit_prefetch t ~pid st vpn =
  if tag_of st = prefetched then begin
    let r = row t (site_of st) in
    r.sr_pf_referenced <- r.sr_pf_referenced + 1;
    r.sr_pf_saved_ns <- r.sr_pf_saved_ns + t.ns.(pid).(vpn)
  end

let observe t ~time:_ ~stream ev =
  if t.l_enabled then
    let c = t.counts in
    match (ev : Trace.event) with
    (* ---- demand faults (stream = faulting pid) ---- *)
    | Hard_fault { vpn } ->
        c.ls_hard_faults <- c.ls_hard_faults + 1;
        let a = page t ~pid:stream ~vpn in
        let st = a.(vpn) in
        let tag = tag_of st and site = site_of st in
        if tag = pf_sent || tag = pf_inflight then begin
          let r = row t site in
          r.sr_pf_late <- r.sr_pf_late + 1;
          c.ls_late_prefetches <- c.ls_late_prefetches + 1
        end
        else if tag = released || tag = freed || tag = gone then begin
          if site <> Trace.no_site then charge_refaulted t site
        end
        else if tag = prefetched then charge_useless t site;
        a.(vpn) <- resident
    | Soft_fault { vpn } ->
        (* invalidated before validation; a prefetched page still profits *)
        c.ls_soft_faults <- c.ls_soft_faults + 1;
        let a = page t ~pid:stream ~vpn in
        credit_prefetch t ~pid:stream a.(vpn) vpn;
        a.(vpn) <- resident
    | Validation_fault { vpn } ->
        c.ls_validation_faults <- c.ls_validation_faults + 1;
        let a = page t ~pid:stream ~vpn in
        credit_prefetch t ~pid:stream a.(vpn) vpn;
        a.(vpn) <- resident
    | Zero_fill { vpn } ->
        c.ls_zero_fills <- c.ls_zero_fills + 1;
        (page t ~pid:stream ~vpn).(vpn) <- resident
    | Rescue { vpn; for_prefetch; site } ->
        c.ls_rescues <- c.ls_rescues + 1;
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
        let r = row t site in
        r.sr_pf_sent <- r.sr_pf_sent + 1;
        let a = page t ~pid:stream ~vpn in
        let tag = tag_of a.(vpn) in
        if not (tag = resident || tag = prefetched) then
          a.(vpn) <- state pf_sent site
    | Prefetch_issued { vpn; site } ->
        c.ls_prefetches_issued <- c.ls_prefetches_issued + 1;
        let r = row t site in
        r.sr_pf_issued <- r.sr_pf_issued + 1;
        (page t ~pid:stream ~vpn).(vpn) <- state pf_inflight site
    | Prefetch_dropped { vpn; site } ->
        c.ls_prefetches_dropped <- c.ls_prefetches_dropped + 1;
        let r = row t site in
        r.sr_pf_dropped <- r.sr_pf_dropped + 1;
        let a = page t ~pid:stream ~vpn in
        let tag = tag_of a.(vpn) in
        if tag = pf_sent || tag = pf_inflight then a.(vpn) <- not_resident
    | Prefetch_raced { vpn; site } ->
        let r = row t site in
        r.sr_pf_raced <- r.sr_pf_raced + 1;
        let a = page t ~pid:stream ~vpn in
        let tag = tag_of a.(vpn) in
        if tag = pf_sent || tag = pf_inflight then a.(vpn) <- resident
    | Prefetch_done { vpn; site; ns } ->
        let r = row t site in
        r.sr_pf_done <- r.sr_pf_done + 1;
        (page t ~pid:stream ~vpn).(vpn) <- state prefetched site;
        t.ns.(stream).(vpn) <- ns
    (* ---- release pipeline ---- *)
    | Rt_release_hint { vpn = _; site; priority } ->
        let r = row t site in
        r.sr_rel_hints <- r.sr_rel_hints + 1;
        r.sr_priority_sum <- r.sr_priority_sum + priority;
        r.sr_priority_n <- r.sr_priority_n + 1
    | Rt_release_filtered { site; _ } ->
        let r = row t site in
        r.sr_rel_filtered <- r.sr_rel_filtered + 1
    | Rt_release_buffered { tag; _ } ->
        let r = row t tag in
        r.sr_rel_buffered <- r.sr_rel_buffered + 1
    | Rt_stale_dropped { site; _ } ->
        let r = row t site in
        r.sr_rel_stale <- r.sr_rel_stale + 1
    | Rt_release_sent { vpn; site } ->
        let r = row t site in
        r.sr_rel_sent <- r.sr_rel_sent + 1;
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
        c.ls_releases_skipped <- c.ls_releases_skipped + 1;
        let r = row t site in
        r.sr_rel_skipped <- r.sr_rel_skipped + 1;
        (page t ~pid:owner ~vpn).(vpn) <- resident
    | Releaser_free { vpn; owner; site } ->
        c.ls_releases_freed <- c.ls_releases_freed + 1;
        let r = row t site in
        r.sr_rel_freed <- r.sr_rel_freed + 1;
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
            let r = row t site in
            r.sr_rel_reused <- r.sr_rel_reused + 1;
            c.ls_useful_releases <- c.ls_useful_releases + 1
          end;
          a.(vpn) <- state gone site
        end
        else if tag = freed_daemon then a.(vpn) <- not_resident
    (* ---- cross-tier transitions (tiered backing store) ---- *)
    | Tier_demote _ -> c.ls_tier_demotions <- c.ls_tier_demotions + 1
    | Tier_fetch _ -> c.ls_tier_fetches <- c.ls_tier_fetches + 1
    | Tier_failover _ -> c.ls_tier_failovers <- c.ls_tier_failovers + 1
    | Tier_rescue _ -> c.ls_tier_rescues <- c.ls_tier_rescues + 1
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

(* Close out the run: pages still sitting in a terminal-ish state become
   taxonomy residue.  Charges go to copies of the site rows, and the
   summary is a copy of [t.counts], so [summarize] is safe to call more
   than once and what it returns shares nothing with the live ledger. *)
let summarize t =
  let final =
    Array.map
      (fun r -> if r == no_row then r else { r with sr_site = r.sr_site })
      t.sites
  in
  let useless = ref t.counts.ls_useless_prefetches in
  let unnecessary = ref 0 in
  Array.iter
    (Array.iter (fun st ->
         let tag = tag_of st and site = site_of st in
         if tag = prefetched then begin
           let r = final.(site + 1) in
           r.sr_pf_useless <- r.sr_pf_useless + 1;
           incr useless
         end
         else if tag = freed then begin
           (* never rescued, never refaulted, never reused: the free did no
              work for anybody *)
           if site <> Trace.no_site then begin
             let r = final.(site + 1) in
             r.sr_rel_unreclaimed <- r.sr_rel_unreclaimed + 1
           end;
           incr unnecessary
         end))
    t.states;
  let ls_sites =
    Array.fold_right
      (fun r rows -> if r == no_row then rows else r :: rows)
      final []
  in
  {
    t.counts with
    ls_sites;
    ls_useless_prefetches = !useless;
    ls_unnecessary_releases = !unnecessary;
  }

let empty_summary = summarize null

let priority_mean r =
  if r.sr_priority_n = 0 then 0.
  else float_of_int r.sr_priority_sum /. float_of_int r.sr_priority_n

let refault_pct r =
  if r.sr_rel_freed = 0 then 0.
  else
    100.
    *. float_of_int (r.sr_rel_rescued + r.sr_rel_refaulted)
    /. float_of_int r.sr_rel_freed

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

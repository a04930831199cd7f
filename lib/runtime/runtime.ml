open Memhog_sim
module Os = Memhog_vm.Os
module As = Memhog_vm.Address_space

type policy = Aggressive | Buffered | Reactive

type stats = {
  mutable rt_prefetch_requests : int;
  mutable rt_prefetch_filtered : int;
  mutable rt_prefetch_enqueued : int;
  mutable rt_release_requests : int;
  mutable rt_release_filtered_bitmap : int;
  mutable rt_release_filtered_same : int;
  mutable rt_release_issued : int;
  mutable rt_release_buffered : int;
  mutable rt_buffer_drains : int;
  mutable rt_release_stale_dropped : int;
  mutable rt_prefetch_os_done : int;
  mutable rt_prefetch_os_dropped : int;
  mutable rt_gov_level : int;
  mutable rt_gov_degrades : int;
  mutable rt_gov_recoveries : int;
  mutable rt_gov_suppressed : int;
  mutable rt_tier_buffered : int;
      (* releases the tier-aware rung forced into the buffer because the
         far-memory breaker was open at hint time *)
}

type governor_cfg = {
  gv_window_ns : Time_ns.t;
  gv_min_samples : int;
  gv_bad_rate : float;
  gv_degrade_after : int;
  gv_recover_after : int;
}

let default_governor =
  {
    gv_window_ns = Time_ns.ms 200;
    gv_min_samples = 8;
    gv_bad_rate = 0.5;
    gv_degrade_after = 2;
    gv_recover_after = 4;
  }

type t = {
  os : Os.t;
  obs : Obs.t;
  asp : As.t;
  pol : policy;
  release_target : int;
  queue : Work_fifo.t;
      (* work items carry the static directive site so the OS-side events
         stay attributable after the asynchronous hop through the helpers *)
  buffer : Release_buffer.t;
  last_release : (int, int * int) Hashtbl.t;
      (* tag -> (page, priority) recorded when first seen, one behind; the
         priority travels with the page so a displaced entry lands in the
         Eq. 2 queue it was hinted with, not the successor's *)
  st : stats;
  mutable started : bool;
  gov : governor_cfg option;
  (* Rolling-window snapshots for the governor (deltas against [st]). *)
  mutable g_window_start : int;
  mutable g_bad_streak : int;
  mutable g_good_streak : int;
  mutable g_pf_done : int;
  mutable g_pf_dropped : int;
  mutable g_stale : int;
  mutable g_rescued : int;
  mutable g_issued : int;
}

(* Run-time events go on the kernel's observation bus, on this process's
   stream.  Call sites guard with [Obs.on t.obs], one branch that builds
   no event when the bus is off. *)
let emit t ev = Obs.emit t.obs ~time:(Engine.now ()) ~stream:t.asp.As.pid ev

let create ?(release_target = 100) ?governor ~os ~asp ~policy () =
  {
    os;
    obs = Os.obs os;
    asp;
    pol = policy;
    release_target;
    queue = Work_fifo.create ();
    buffer = Release_buffer.create ();
    last_release = Hashtbl.create 64;
    st =
      {
        rt_prefetch_requests = 0;
        rt_prefetch_filtered = 0;
        rt_prefetch_enqueued = 0;
        rt_release_requests = 0;
        rt_release_filtered_bitmap = 0;
        rt_release_filtered_same = 0;
        rt_release_issued = 0;
        rt_release_buffered = 0;
        rt_buffer_drains = 0;
        rt_release_stale_dropped = 0;
        rt_prefetch_os_done = 0;
        rt_prefetch_os_dropped = 0;
        rt_gov_level = 0;
        rt_gov_degrades = 0;
        rt_gov_recoveries = 0;
        rt_gov_suppressed = 0;
        rt_tier_buffered = 0;
      };
    started = false;
    gov = governor;
    g_window_start = 0;
    g_bad_streak = 0;
    g_good_streak = 0;
    g_pf_done = 0;
    g_pf_dropped = 0;
    g_stale = 0;
    g_rescued = 0;
    g_issued = 0;
  }

let policy t = t.pol
let stats t = t.st
let buffered_pages t = Release_buffer.total t.buffer

(* Helper threads: issue prefetches and release requests to the
   PagingDirected PM, waiting out the I/O so the application does not. *)
let issue_prefetch t slot ~urgent =
  match
    Os.prefetch t.os t.asp ~vpn:(Work_fifo.vpn slot) ~site:(Work_fifo.site slot)
      ~urgent
  with
  | Os.P_dropped ->
      t.st.rt_prefetch_os_dropped <- t.st.rt_prefetch_os_dropped + 1
  | Os.P_fetched | Os.P_rescued | Os.P_already ->
      t.st.rt_prefetch_os_done <- t.st.rt_prefetch_os_done + 1

let thread_loop t slot () =
  while true do
    match Work_fifo.recv t.queue slot with
    | Work_fifo.Prefetch -> issue_prefetch t slot ~urgent:false
    | Work_fifo.Urgent_prefetch -> issue_prefetch t slot ~urgent:true
    | Work_fifo.Release ->
        let triples = Work_fifo.take_batch slot in
        Os.release_request t.os t.asp
          ~vpns:(Array.map (fun (vpn, _, _) -> vpn) triples)
          ~sites:(Array.map (fun (_, site, _) -> site) triples)
          ~priorities:(Array.map (fun (_, _, prio) -> prio) triples)
  done

(* Helper threads per process. *)
let nthreads = 16

let start t =
  if not t.started then begin
    t.started <- true;
    for i = 1 to nthreads do
      ignore
        (Engine.spawn (Os.engine t.os)
           ~name:(Printf.sprintf "%s-rt-thread-%d" t.asp.As.as_name i)
           (thread_loop t (Work_fifo.slot t.queue)))
    done
  end

(* The user-time cost of one request's filter checks. *)
let charge_filter () = Engine.delay ~cat:Account.User 200

(* --- Graceful-degradation governor -------------------------------- *)

(* The governor is evaluated lazily on hint arrival rather than by its own
   fiber: a fiber would perturb the engine's schedule (and thus every
   committed baseline) even when healthy, whereas closing a window inside
   an already-running hint call costs zero simulated time.  Degradation
   ladder: level 0 = the configured policy, level 1 = force Aggressive
   (stop buffering — under faults, held pages go stale), level 2 =
   directives off (pure demand paging).  At level 2 hints are suppressed,
   so windows go quiet and count as good: recovery probes back to level 1,
   and re-degrades if the fault persists. *)

let gov_transition t ~level_to ~drop_pct ~stale_pct =
  let level_from = t.st.rt_gov_level in
  t.st.rt_gov_level <- level_to;
  if level_to > level_from then
    t.st.rt_gov_degrades <- t.st.rt_gov_degrades + 1
  else t.st.rt_gov_recoveries <- t.st.rt_gov_recoveries + 1;
  if Obs.on t.obs then
    emit t (Trace.Governor_transition { level_from; level_to; drop_pct; stale_pct })

let gov_tick t =
  match t.gov with
  | None -> ()
  | Some cfg ->
      let now = Engine.now_of (Os.engine t.os) in
      if now - t.g_window_start >= cfg.gv_window_ns then begin
        let pf_done = t.st.rt_prefetch_os_done - t.g_pf_done in
        let pf_dropped = t.st.rt_prefetch_os_dropped - t.g_pf_dropped in
        let stale = t.st.rt_release_stale_dropped - t.g_stale in
        let rescued = t.asp.As.stats.rescued_releaser - t.g_rescued in
        let issued = t.st.rt_release_issued - t.g_issued in
        let pf_total = pf_done + pf_dropped in
        let drop_rate = float_of_int pf_dropped /. float_of_int (Int.max 1 pf_total) in
        (* Release badness: hints that aged out in the buffer (stale drops)
           or were issued so early the OS had to rescue the page back. *)
        let stale_rate =
          float_of_int (stale + rescued) /. float_of_int (Int.max 1 issued)
        in
        let bad =
          pf_total + issued >= cfg.gv_min_samples
          && (drop_rate >= cfg.gv_bad_rate || stale_rate >= cfg.gv_bad_rate)
        in
        let drop_pct = int_of_float (drop_rate *. 100.0) in
        let stale_pct = int_of_float (stale_rate *. 100.0) in
        if bad then begin
          t.g_good_streak <- 0;
          t.g_bad_streak <- t.g_bad_streak + 1;
          if t.g_bad_streak >= cfg.gv_degrade_after && t.st.rt_gov_level < 2
          then begin
            gov_transition t ~level_to:(t.st.rt_gov_level + 1) ~drop_pct
              ~stale_pct;
            t.g_bad_streak <- 0
          end
        end
        else begin
          t.g_bad_streak <- 0;
          t.g_good_streak <- t.g_good_streak + 1;
          if t.g_good_streak >= cfg.gv_recover_after && t.st.rt_gov_level > 0
          then begin
            gov_transition t ~level_to:(t.st.rt_gov_level - 1) ~drop_pct
              ~stale_pct;
            t.g_good_streak <- 0
          end
        end;
        t.g_window_start <- now;
        t.g_pf_done <- t.st.rt_prefetch_os_done;
        t.g_pf_dropped <- t.st.rt_prefetch_os_dropped;
        t.g_stale <- t.st.rt_release_stale_dropped;
        t.g_rescued <- t.asp.As.stats.rescued_releaser;
        t.g_issued <- t.st.rt_release_issued
      end

let gov_level t = t.st.rt_gov_level
let governor_level = gov_level

(* Level 2: pure demand paging — the hint is charged (the instrumented
   binary still executes the call) but goes no further. *)
let gov_suppressed t =
  t.gov <> None
  && t.st.rt_gov_level >= 2
  &&
  (t.st.rt_gov_suppressed <- t.st.rt_gov_suppressed + 1;
   true)

let prefetch_page ?(site = Trace.no_site) ?(urgent = false) t ~vpn =
  t.st.rt_prefetch_requests <- t.st.rt_prefetch_requests + 1;
  charge_filter ();
  gov_tick t;
  if gov_suppressed t then ()
  else if Os.page_resident t.asp ~vpn then
    t.st.rt_prefetch_filtered <- t.st.rt_prefetch_filtered + 1
  else begin
    t.st.rt_prefetch_enqueued <- t.st.rt_prefetch_enqueued + 1;
    if Obs.on t.obs then emit t (Trace.Rt_prefetch_sent { vpn; site });
    Work_fifo.send_prefetch t.queue ~vpn ~site ~urgent
  end

let issue_release t triples =
  if Array.length triples > 0 then begin
    t.st.rt_release_issued <- t.st.rt_release_issued + Array.length triples;
    if Obs.on t.obs then begin
      Array.iter
        (fun (vpn, site, _prio) -> emit t (Trace.Rt_release_sent { vpn; site }))
        triples;
      emit t (Trace.Rt_release_issued { count = Array.length triples })
    end;
    Work_fifo.send_release t.queue triples
  end

(* Stale entries (pages already stolen or released behind our back) are
   cheap to drop before issuing, but not free to ignore: each one is a hint
   the buffer held too long, so they are counted and traced. *)
let drop_stale t triples =
  List.filter
    (fun (vpn, site, _prio) ->
      let live = Os.page_resident t.asp ~vpn in
      if not live then begin
        t.st.rt_release_stale_dropped <- t.st.rt_release_stale_dropped + 1;
        if Obs.on t.obs then emit t (Trace.Rt_stale_dropped { vpn; site })
      end;
      live)
    triples

(* Drain the lowest-priority queues when usage reaches the limit the OS
   published in the shared page. *)
let maybe_drain t =
  let usage = Os.shared_current_usage t.os t.asp in
  let limit = Os.shared_upper_limit t.os t.asp in
  if usage >= limit && Release_buffer.total t.buffer > 0 then begin
    t.st.rt_buffer_drains <- t.st.rt_buffer_drains + 1;
    let pairs = Release_buffer.pop_lowest t.buffer ~max:t.release_target in
    let pairs = Array.of_list (drop_stale t (Array.to_list pairs)) in
    if Obs.on t.obs then
      emit t (Trace.Rt_release_drained { count = Array.length pairs });
    issue_release t pairs
  end

(* Handle a release that survived the one-behind filter. *)
let handle_release t ~vpn ~priority ~tag =
  if not (Os.page_resident t.asp ~vpn) then begin
    t.st.rt_release_filtered_bitmap <- t.st.rt_release_filtered_bitmap + 1;
    if Obs.on t.obs then
      emit t (Trace.Rt_release_filtered { vpn; reason = "bitmap"; site = tag })
  end
  else
    (* Degraded to level >= 1: stop buffering — under an active fault the
       buffer only grows stale — and issue everything immediately.
       Tier-aware rung (below the governor's): while the far-memory
       breaker is open, demotions would only fail over to the local disks,
       so hold pages in the local buffer instead of releasing them into a
       degraded store — effectively Buffered until the tier heals. *)
    let effective =
      if gov_level t >= 1 then Aggressive
      else if t.pol = Aggressive && Os.tier_far_open t.os then begin
        t.st.rt_tier_buffered <- t.st.rt_tier_buffered + 1;
        Buffered
      end
      else t.pol
    in
    match effective with
    | Aggressive -> issue_release t [| (vpn, tag, priority) |]
    | Buffered ->
        (* Non-positive priorities mean "no reuse expected": they route to
           the immediate path ([Release_buffer.add] would reject them). *)
        if priority <= 0 then issue_release t [| (vpn, tag, priority) |]
        else begin
          t.st.rt_release_buffered <- t.st.rt_release_buffered + 1;
          if Obs.on t.obs then
            emit t (Trace.Rt_release_buffered { vpn; tag; priority });
          Release_buffer.add t.buffer ~tag ~priority ~vpn;
          maybe_drain t
        end
    | Reactive ->
        (* hold everything releasable; the buffer requires positive
           priorities, so shift by one — negative priorities still mean
           "no reuse expected" and go straight out *)
        if priority < 0 then issue_release t [| (vpn, tag, priority) |]
        else begin
          t.st.rt_release_buffered <- t.st.rt_release_buffered + 1;
          if Obs.on t.obs then
            emit t (Trace.Rt_release_buffered { vpn; tag; priority });
          Release_buffer.add t.buffer ~tag ~priority:(priority + 1) ~vpn
        end

let release_page t ~vpn ~priority ~tag =
  t.st.rt_release_requests <- t.st.rt_release_requests + 1;
  charge_filter ();
  gov_tick t;
  if Obs.on t.obs then emit t (Trace.Rt_release_hint { vpn; site = tag; priority });
  if gov_suppressed t then ()
  else if not (Os.page_resident t.asp ~vpn) then begin
    t.st.rt_release_filtered_bitmap <- t.st.rt_release_filtered_bitmap + 1;
    if Obs.on t.obs then
      emit t (Trace.Rt_release_filtered { vpn; reason = "bitmap"; site = tag })
  end
  else
    (* One-request-behind: the first request for a tag is recorded; a repeat
       of the same page is dropped (obviously still in use); a different
       page causes the recorded one to be handled — at the priority it was
       recorded with — and the new one to take its place.  Issued releases
       thus trail the compiler's hints by one iteration. *)
    match Hashtbl.find_opt t.last_release tag with
    | Some (prev, _) when prev = vpn ->
        t.st.rt_release_filtered_same <- t.st.rt_release_filtered_same + 1;
        if Obs.on t.obs then
          emit t (Trace.Rt_release_filtered { vpn; reason = "same"; site = tag })
    | Some (prev, prev_priority) ->
        Hashtbl.replace t.last_release tag (vpn, priority);
        handle_release t ~vpn:prev ~priority:prev_priority ~tag
    | None -> Hashtbl.replace t.last_release tag (vpn, priority)

let rec advise_evict t =
  let batch = Release_buffer.pop_lowest t.buffer ~max:1 in
  if Array.length batch = 0 then None
  else
    let vpn, _site, _prio = batch.(0) in
    if Os.page_resident t.asp ~vpn then Some vpn
    else advise_evict t (* stale entry: the page is already gone *)

let drain t =
  t.st.rt_buffer_drains <- t.st.rt_buffer_drains + 1;
  (* Flush the one-behind filter: at exit nothing is still in use, so every
     recorded page is releasable (priority no longer matters).  The table
     key is the directive tag, so each flushed page keeps its site. *)
  let pending =
    Hashtbl.fold
      (fun tag (vpn, priority) acc -> (vpn, tag, priority) :: acc)
      t.last_release []
    (* Hashtbl.fold order is seed-dependent across stdlib versions; sort so
       the flush (and everything downstream of it) is deterministic. *)
    |> List.sort compare
  in
  Hashtbl.reset t.last_release;
  let pending = drop_stale t pending in
  issue_release t (Array.of_list pending);
  let rec go drained =
    let pairs = Release_buffer.pop_lowest t.buffer ~max:t.release_target in
    if Array.length pairs > 0 then begin
      let live = drop_stale t (Array.to_list pairs) in
      issue_release t (Array.of_list live);
      go (drained + List.length live)
    end
    else drained
  in
  let drained = go (List.length pending) in
  if Obs.on t.obs then emit t (Trace.Rt_release_drained { count = drained })

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
  mutable last_page : int array;
  mutable last_prio : int array;
      (* tag -> (page, priority) recorded when first seen, one behind, or
         [no_page]; the priority travels with the page so a displaced entry
         lands in the Eq. 2 queue it was hinted with, not the successor's *)
  out : Int_ring.t;
      (* the outgoing batch being staged: (vpn, site, priority) records,
         empty between hints *)
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
    last_page = [||];
    last_prio = [||];
    out = Int_ring.create ~width:3;
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
    | Work_fifo.Release -> Os.release_batch t.os t.asp (Work_fifo.batch slot)
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

(* Hand the staged batch to the helpers, leaving the staging empty. *)
let issue_release t =
  let out = t.out in
  let n = Int_ring.length out in
  if n > 0 then begin
    t.st.rt_release_issued <- t.st.rt_release_issued + n;
    if Obs.on t.obs then begin
      for i = 0 to n - 1 do
        emit t
          (Trace.Rt_release_sent
             { vpn = Int_ring.get out i 0; site = Int_ring.get out i 1 })
      done;
      emit t (Trace.Rt_release_issued { count = n })
    end;
    Work_fifo.send_release t.queue out
  end

let issue_one t ~vpn ~tag ~priority =
  Int_ring.push3 t.out vpn tag priority;
  issue_release t

(* Stale entries (pages already stolen or released behind our back) are
   cheap to drop before issuing, but not free to ignore: each one is a hint
   the buffer held too long, so they are counted and traced.  Filters the
   staged batch in place, keeping the live pages in order. *)
let drop_stale t =
  let out = t.out in
  let kept = ref 0 in
  for i = 0 to Int_ring.length out - 1 do
    let vpn = Int_ring.get out i 0 in
    if Os.page_resident t.asp ~vpn then begin
      if !kept < i then begin
        Int_ring.set out !kept 0 vpn;
        Int_ring.set out !kept 1 (Int_ring.get out i 1);
        Int_ring.set out !kept 2 (Int_ring.get out i 2)
      end;
      incr kept
    end
    else begin
      t.st.rt_release_stale_dropped <- t.st.rt_release_stale_dropped + 1;
      if Obs.on t.obs then
        emit t (Trace.Rt_stale_dropped { vpn; site = Int_ring.get out i 1 })
    end
  done;
  Int_ring.truncate out !kept

(* Drain the lowest-priority queues when usage reaches the limit the OS
   published in the shared page. *)
let maybe_drain t =
  let usage = Os.shared_current_usage t.os t.asp in
  let limit = Os.shared_upper_limit t.os t.asp in
  if usage >= limit && Release_buffer.total t.buffer > 0 then begin
    t.st.rt_buffer_drains <- t.st.rt_buffer_drains + 1;
    Release_buffer.pop_lowest t.buffer ~max:t.release_target t.out;
    drop_stale t;
    if Obs.on t.obs then
      emit t (Trace.Rt_release_drained { count = Int_ring.length t.out });
    issue_release t
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
    | Aggressive -> issue_one t ~vpn ~tag ~priority
    | Buffered ->
        (* Non-positive priorities mean "no reuse expected": they route to
           the immediate path ([Release_buffer.add] would reject them). *)
        if priority <= 0 then issue_one t ~vpn ~tag ~priority
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
        if priority < 0 then issue_one t ~vpn ~tag ~priority
        else begin
          t.st.rt_release_buffered <- t.st.rt_release_buffered + 1;
          if Obs.on t.obs then
            emit t (Trace.Rt_release_buffered { vpn; tag; priority });
          Release_buffer.add t.buffer ~tag ~priority:(priority + 1) ~vpn
        end

let no_page = min_int

(* Make room for [tag] in the one-behind filter. *)
let grow_filter t tag =
  let n = Array.length t.last_page in
  let cap = Int.max (tag + 1) (Int.max 16 (2 * n)) in
  let page = Array.make cap no_page and prio = Array.make cap 0 in
  Array.blit t.last_page 0 page 0 n;
  Array.blit t.last_prio 0 prio 0 n;
  t.last_page <- page;
  t.last_prio <- prio

let release_page t ~vpn ~priority ~tag =
  if tag < 0 then invalid_arg "Runtime.release_page: negative tag";
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
    begin
      if tag >= Array.length t.last_page then grow_filter t tag;
      let prev = t.last_page.(tag) in
      if prev = vpn then begin
        t.st.rt_release_filtered_same <- t.st.rt_release_filtered_same + 1;
        if Obs.on t.obs then
          emit t (Trace.Rt_release_filtered { vpn; reason = "same"; site = tag })
      end
      else begin
        let prev_priority = t.last_prio.(tag) in
        t.last_page.(tag) <- vpn;
        t.last_prio.(tag) <- priority;
        if prev <> no_page then
          handle_release t ~vpn:prev ~priority:prev_priority ~tag
      end
    end

let rec advise_evict t =
  Release_buffer.pop_lowest t.buffer ~max:1 t.out;
  if Int_ring.length t.out = 0 then None
  else begin
    let vpn = Int_ring.get t.out 0 0 in
    Int_ring.clear t.out;
    if Os.page_resident t.asp ~vpn then Some vpn
    else advise_evict t (* stale entry: the page is already gone *)
  end

let drain t =
  t.st.rt_buffer_drains <- t.st.rt_buffer_drains + 1;
  (* Flush the one-behind filter: at exit nothing is still in use, so every
     recorded page is releasable (priority no longer matters).  Each page
     keeps its tag, so its site.  The flush goes out in ascending (vpn, tag)
     order, the order every committed baseline was produced with; a tag
     records one page, so no two records tie on both. *)
  let tags = ref [] in
  Array.iteri (fun tag vpn -> if vpn <> no_page then tags := tag :: !tags)
    t.last_page;
  let tags = Array.of_list !tags in
  Array.sort
    (fun a b ->
      let c = Int.compare t.last_page.(a) t.last_page.(b) in
      if c <> 0 then c else Int.compare a b)
    tags;
  Array.iter
    (fun tag ->
      Int_ring.push3 t.out t.last_page.(tag) tag t.last_prio.(tag);
      t.last_page.(tag) <- no_page)
    tags;
  drop_stale t;
  let pending = Int_ring.length t.out in
  issue_release t;
  let rec go drained =
    Release_buffer.pop_lowest t.buffer ~max:t.release_target t.out;
    if Int_ring.length t.out > 0 then begin
      drop_stale t;
      let live = Int_ring.length t.out in
      issue_release t;
      go (drained + live)
    end
    else drained
  in
  let drained = go pending in
  if Obs.on t.obs then emit t (Trace.Rt_release_drained { count = drained })

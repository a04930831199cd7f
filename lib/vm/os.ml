open Memhog_sim
module As = Address_space
module Swap = Memhog_disk.Swap
module Fl = Free_list

type touch_result =
  | Fast
  | Soft
  | Validated
  | Hard
  | Zero_filled
  | Rescued of Vm_stats.freer

type prefetch_result = P_fetched | P_rescued | P_already | P_dropped

type t = {
  config : Config.t;
  engine : Engine.t;
  swap : Swap.t;
  mutable tiers : Tiers.t option;
      (* tiered backing store router; None = plain striped swap *)
  frames : Fl.frame array;
  free : Free_list.t;
  free_cond : Condition.t;
  memory_lock : Semaphore.t;
  cpus : Semaphore.t;
  mutable spaces : As.t array;
      (* pid -> address space, for every pid below [next_pid] *)
  rel_pages : Int_ring.t;
      (* the releaser's queue: (vpn, site, priority) of each requested
         page, in request order.  The site is Trace.no_site for
         unattributed requests; the priority, the tier router's placement
         key, is min_int for unattributed ones. *)
  rel_reqs : Int_ring.t;
      (* (owner pid, page count) of each request; its pages are the next
         [count] of [rel_pages] *)
  releaser_wait : Engine.queue;  (* the releaser, while its queue is empty *)
  gstats : Vm_stats.global;
  obs : Obs.t;
  chaos : Chaos.t;
  h_fault : Histogram.t;
      (* service time of every demand fault (non-Fast touch), wall start to
         wall end including lock and I/O waits *)
  h_prefetch : Histogram.t;
      (* service time of completed prefetches (fetched or rescued) *)
  mutable clock_hand : int;
  mutable next_pid : int;
  mutable next_swap_page : int;
  advisors : (int, unit -> int option) Hashtbl.t;
      (* reactive eviction (section 2.2): per-process callbacks that name a
         page the application prefers to surrender *)
  daemon_tick : Engine.queue;  (* the paging daemon, between ticks *)
  tick_timer : Engine.timer;  (* ends the current tick *)
  mutable unconserved_at : Time_ns.t option;
      (* the first paging-daemon tick at which frame conservation failed *)
}

let config t = t.config
let engine t = t.engine
let swap t = t.swap
let tiers t = t.tiers
let tier_far_open t = match t.tiers with None -> false | Some tr -> Tiers.far_open tr
let global_stats t = t.gstats
let free_pages t = Free_list.length t.free
let cpus t = t.cpus
let obs t = t.obs
let chaos t = t.chaos
let fault_histogram t = t.h_fault
let prefetch_histogram t = t.h_prefetch

let sys_delay d = Engine.delay ~cat:Account.System d

(* Put [ev] on the observation bus at the current simulated time.  Call
   sites test [Obs.on] first, so a run without sinks builds no event. *)
let emit t ~stream ev = Obs.emit t.obs ~time:(Engine.now ()) ~stream ev

(* Backing-store indirection: with a tier router installed, reads go to
   wherever the page currently lives (far memory, compressed RAM, or the
   swap failover copy); without one they go straight to the striped swap
   volume, byte-for-byte as before. *)
let backing_read t ~background ~page =
  match t.tiers with
  | None -> Swap.read t.swap ~cat:Account.Io_stall ~background ~page
  | Some tr -> Tiers.read tr ~cat:Account.Io_stall ~background ~page

(* Equation 1: the recommended upper limit on memory usage. *)
let update_limits t (asp : As.t) =
  asp.current_usage <- asp.rss;
  let free = Free_list.length t.free in
  let limit = asp.rss + free - t.config.min_freemem in
  asp.upper_limit <- Int.max 0 (Int.min t.config.maxrss limit)

let shared_current_usage t asp =
  ignore t;
  asp.As.current_usage

let shared_upper_limit t asp =
  ignore t;
  asp.As.upper_limit

let page_resident (asp : As.t) ~vpn = As.mapped asp ~vpn && As.bit asp ~vpn

(* ------------------------------------------------------------------ *)
(* Frame allocation                                                    *)
(* ------------------------------------------------------------------ *)

(* Move a frame to [next], losing the freed page it keeps, if any: its
   owner can no longer rescue it, and the loss counts against its freer.
   [next] is [Held] for a new allocation (the one [Frame_reused] lifecycle
   event); with rescue disabled, [Free] at the free or [Abandoned] when the
   owner fetches a page in writeback again.  Caller holds [memory_lock],
   or the owner's as_lock for [Abandoned]. *)
let disassociate t (f : Fl.frame) next =
  (match Fl.state f with
  | (Rescuable_daemon | Rescuable_releaser | Writeback_daemon
    | Writeback_releaser) as st ->
      let victim = t.spaces.(f.owner) in
      (match Fl.freer st with
      | Vm_stats.Daemon ->
          victim.As.stats.lost_daemon <- victim.As.stats.lost_daemon + 1
      | Vm_stats.Releaser ->
          victim.As.stats.lost_releaser <- victim.As.stats.lost_releaser + 1);
      As.set_raw victim ~vpn:f.vpn As.Pte.swapped;
      if next = Fl.Held && Obs.on t.obs then
        emit t ~stream:Trace.kernel_stream
          (Trace.Frame_reused { vpn = f.vpn; owner = f.owner });
      f.free_site <- Trace.no_site
  | _ -> ());
  Fl.set t.free f next

(* Take the free list's head, or [None] when it is empty: section 3.1.2 —
   "if there is no free memory, the request is discarded immediately".
   Returns with no locks held. *)
let alloc_frame_opt t =
  Semaphore.acquire t.memory_lock;
  let result = Fl.head t.free in
  (match result with
  | Some f ->
      disassociate t f Held;
      t.gstats.allocations <- t.gstats.allocations + 1
  | None -> ());
  Semaphore.release t.memory_lock;
  result

(* Pop a frame, waiting for one while the free list is empty. *)
let rec alloc_frame t =
  match alloc_frame_opt t with
  | Some f -> f
  | None ->
      t.gstats.allocation_waits <- t.gstats.allocation_waits + 1;
      Condition.wait t.free_cond;
      alloc_frame t

(* Put a frame on the free-list tail in a listed [state] and wake waiting
   allocators.  Caller holds [memory_lock]. *)
let list_frame t f state =
  Fl.set t.free f state;
  Condition.broadcast t.free_cond

(* Take a resident page off its frame on behalf of [freer]: the PTE keeps
   the frame for a rescue, marked [On_free_list], and the owner's rss
   falls.  A clean frame goes to the free-list tail at once; a dirty one is
   consed onto [writebacks] with its release [priority] (min_int for none),
   to be listed when its write completes.  With rescue disabled a clean
   page's contents are lost at once.  Caller holds the owner's as_lock and
   [memory_lock]. *)
let detach t (asp : As.t) (f : Fl.frame) ~(freer : Vm_stats.freer) ~site
    ~priority writebacks =
  As.set_raw asp ~vpn:f.vpn (As.Pte.on_free_list f.idx);
  asp.As.rss <- asp.As.rss - 1;
  f.free_site <- site;
  if f.dirty then begin
    Fl.set t.free f (Fl.writeback freer);
    asp.As.stats.writebacks <- asp.As.stats.writebacks + 1;
    let priority = if priority = min_int then None else Some priority in
    (asp, f.vpn, f, priority) :: writebacks
  end
  else begin
    list_frame t f (Fl.rescuable freer);
    if not t.config.rescue_from_free_list then disassociate t f Free;
    writebacks
  end

(* ------------------------------------------------------------------ *)
(* Process setup                                                       *)
(* ------------------------------------------------------------------ *)

let new_process t ~name =
  let pid = t.next_pid in
  let asp = As.create ~pid ~name in
  if pid = Array.length t.spaces then begin
    let spaces = Array.make (Int.max 4 (2 * pid)) asp in
    Array.blit t.spaces 0 spaces 0 pid;
    t.spaces <- spaces
  end;
  t.spaces.(pid) <- asp;
  t.next_pid <- pid + 1;
  Trace.set_stream_name (Obs.trace t.obs) asp.As.pid name;
  asp

let map_segment t asp ~name ~bytes ~on_swap =
  let npages = (bytes + t.config.page_bytes - 1) / t.config.page_bytes in
  let swap_base = t.next_swap_page in
  t.next_swap_page <- t.next_swap_page + npages;
  As.add_segment asp ~name ~npages ~swap_base ~on_swap

(* ------------------------------------------------------------------ *)
(* Page transitions shared by faults and prefetches                    *)
(* ------------------------------------------------------------------ *)

let install_frame t (asp : As.t) ~vpn (f : Fl.frame) ~write ~prefetched =
  (* A page entering RAM by any route (fetch completion, free-list rescue)
     invalidates its fast-tier copy: resident and tier-resident are
     mutually exclusive states. *)
  (match t.tiers with
  | None -> ()
  | Some tr -> Tiers.invalidate tr ~page:(As.swap_page asp ~vpn));
  f.owner <- asp.As.pid;
  f.vpn <- vpn;
  f.dirty <- write;
  f.valid <- not prefetched;
  f.referenced <- not prefetched;
  f.prefetched <- prefetched;
  f.age <- 0;
  f.free_site <- Trace.no_site;
  As.set_raw asp ~vpn (As.Pte.resident f.idx);
  Fl.set t.free f Resident;
  asp.As.rss <- asp.As.rss + 1;
  As.set_bit asp ~vpn true;
  (* a demand-installed page enters the TLB; a prefetched page does so only
     when section 3.1.2's no-TLB-entry feature is disabled *)
  if (not prefetched) || t.config.prefetch_fills_tlb then
    Tlb.insert asp.As.tlb ~vpn;
  update_limits t asp

(* Make a resident, invalid page valid again (a soft or validation fault):
   charge [ns] of kernel time and unlock.  Caller holds the owner's
   as_lock. *)
let revalidate (asp : As.t) (f : Fl.frame) ~vpn ~write ns =
  f.valid <- true;
  f.referenced <- true;
  f.age <- 0;
  if write then f.dirty <- true;
  As.set_bit asp ~vpn true;
  Tlb.insert asp.As.tlb ~vpn;
  sys_delay ns;
  Semaphore.release asp.As.as_lock

(* Take a freed page's frame back, off the free list or out of its pending
   writeback (install_frame makes it [Resident], so the writer no longer
   lists it), and map it again; returns who had freed it.  Caller holds the
   owner's as_lock and [memory_lock], and has checked that the PTE still
   names [f]. *)
let rescue t (asp : As.t) (f : Fl.frame) ~vpn ~write ~prefetched =
  let stats = asp.As.stats in
  let freer = Fl.freer (Fl.state f) in
  (match freer with
  | Vm_stats.Daemon -> stats.rescued_daemon <- stats.rescued_daemon + 1
  | Vm_stats.Releaser -> stats.rescued_releaser <- stats.rescued_releaser + 1);
  if Obs.on t.obs then
    emit t ~stream:asp.As.pid
      (Trace.Rescue { vpn; for_prefetch = prefetched; site = f.free_site });
  install_frame t asp ~vpn f ~write ~prefetched;
  freer

(* Page-in, first half: mark a swapped or untouched page in transit and
   unlock.  A fault or prefetch that finds it in transit waits on the
   returned ivar.  Caller holds the owner's as_lock. *)
let start_page_in (asp : As.t) ~vpn =
  let ivar = Ivar.create () in
  As.set_in_transit asp ~vpn ivar;
  Semaphore.release asp.As.as_lock;
  ivar

(* Page-in, second half: zero-fill or read the page into [f], install it
   (a zero-filled page is dirty from birth: its contents exist nowhere
   else), fill the ivar and unlock. *)
let finish_page_in t (asp : As.t) ~vpn f ivar ~zero ~write ~prefetched
    ~background =
  if zero then sys_delay Config.zero_fill_ns
  else backing_read t ~background ~page:(As.swap_page asp ~vpn);
  Semaphore.acquire asp.As.as_lock;
  install_frame t asp ~vpn f ~write:(write || zero) ~prefetched;
  Ivar.fill ivar ();
  Semaphore.release asp.As.as_lock

(* ------------------------------------------------------------------ *)
(* Fault handling                                                      *)
(* ------------------------------------------------------------------ *)

let rec touch t (asp : As.t) ~vpn ~write =
  if not (As.mapped asp ~vpn) then raise Not_found;
  (* The packed-PTE read keeps the warm path allocation-free: one int load,
     one tag test, no variant decode. *)
  let p = As.get_raw asp ~vpn in
  if
    As.Pte.tag p = As.Pte.tag_resident
    &&
    let f = t.frames.(As.Pte.frame p) in
    f.valid && not f.prefetched
  then begin
    let f = t.frames.(As.Pte.frame p) in
    f.referenced <- true;
    if write then f.dirty <- true;
    (* the MIPS TLB is refilled in software: a miss on a mapped, valid
       page still costs a trap *)
    if not (Tlb.access asp.As.tlb ~vpn) then
      Engine.delay ~cat:Account.System Config.tlb_refill_ns;
    Fast
  end
  else fault t asp ~vpn ~write

and fault t asp ~vpn ~write =
  let stats = asp.As.stats in
  Semaphore.acquire asp.As.as_lock;
  (* Re-examine under the lock: the world may have changed while waiting.
     Dispatch on the packed tag (if/else: tags are named constants, not
     literals, so they cannot head a pattern match). *)
  let p = As.get_raw asp ~vpn in
  let tag = As.Pte.tag p in
  if tag = As.Pte.tag_resident then begin
    let f = t.frames.(As.Pte.frame p) in
    if f.prefetched then begin
      (* First touch of a prefetched page: cheap validation fault. *)
      f.prefetched <- false;
      stats.validation_faults <- stats.validation_faults + 1;
      if Obs.on t.obs then
        emit t ~stream:asp.As.pid (Trace.Validation_fault { vpn });
      revalidate asp f ~vpn ~write Config.validation_fault_ns;
      Validated
    end
    else if not f.valid then begin
      (* Soft fault: revalidate after an invalidation (by the daemon's
         reference sampling, or by a release request). *)
      stats.soft_faults <- stats.soft_faults + 1;
      if Obs.on t.obs then emit t ~stream:asp.As.pid (Trace.Soft_fault { vpn });
      if not f.release_invalidated then
        stats.soft_faults_daemon <- stats.soft_faults_daemon + 1;
      f.release_invalidated <- false;
      revalidate asp f ~vpn ~write Config.soft_fault_ns;
      Soft
    end
    else begin
      (* Lost the race benignly: page became valid while we waited. *)
      f.referenced <- true;
      if write then f.dirty <- true;
      Semaphore.release asp.As.as_lock;
      Fast
    end
  end
  else if tag = As.Pte.tag_on_free_list && not t.config.rescue_from_free_list
  then begin
    (* Rescue disabled: the only way a PTE still points at a freed frame
       is a writeback in flight.  Abandon it (the PTE turns [Swapped], the
       frame waits for its write) and demand-fetch. *)
    disassociate t t.frames.(As.Pte.frame p) Abandoned;
    Semaphore.release asp.As.as_lock;
    touch t asp ~vpn ~write
  end
  else if tag = As.Pte.tag_on_free_list then begin
    Semaphore.acquire t.memory_lock;
    (* Same packed word = same state and same frame. *)
    if As.get_raw asp ~vpn = p then begin
      let freer =
        rescue t asp t.frames.(As.Pte.frame p) ~vpn ~write ~prefetched:false
      in
      sys_delay Config.rescue_ns;
      Semaphore.release t.memory_lock;
      Semaphore.release asp.As.as_lock;
      Rescued freer
    end
    else begin
      (* The frame was reallocated while we took the lock: retry. *)
      Semaphore.release t.memory_lock;
      Semaphore.release asp.As.as_lock;
      touch t asp ~vpn ~write
    end
  end
  else if tag = As.Pte.tag_in_transit then begin
    (* Someone (prefetch thread or another fault) is bringing it in. *)
    let ivar = As.transit_ivar asp ~vpn in
    Semaphore.release asp.As.as_lock;
    let rq = Obs.reqtrace t.obs in
    if Reqtrace.enabled rq then begin
      let t0 = Engine.now_of t.engine in
      Ivar.read ~cat:Account.Io_stall ivar;
      Reqtrace.note_transit rq ~pid:(Engine.pid (Engine.self ()))
        ~start:t0
        ~ns:(Engine.now_of t.engine - t0)
    end
    else Ivar.read ~cat:Account.Io_stall ivar;
    touch t asp ~vpn ~write
  end
  else begin
    (* swapped or untouched *)
    let zero = tag = As.Pte.tag_untouched in
    let ivar = start_page_in asp ~vpn in
    let f = alloc_frame t in
    sys_delay Config.hard_fault_cpu_ns;
    if zero then begin
      stats.zero_fills <- stats.zero_fills + 1;
      if Obs.on t.obs then emit t ~stream:asp.As.pid (Trace.Zero_fill { vpn })
    end
    else begin
      stats.hard_faults <- stats.hard_faults + 1;
      if Obs.on t.obs then emit t ~stream:asp.As.pid (Trace.Hard_fault { vpn })
    end;
    finish_page_in t asp ~vpn f ivar ~zero ~write ~prefetched:false
      ~background:false;
    if zero then Zero_filled else Hard
  end

(* Public entry point: time every demand fault from the first trap to
   service completion — including lock waits, blocking frame allocation and
   swap I/O — into the service-time histogram.  The recursive retry paths
   above call the inner [touch] directly, so a retried fault is measured
   once, end to end. *)
let touch_inner = touch

let touch t asp ~vpn ~write =
  let t0 = Engine.now_of t.engine in
  let r = touch_inner t asp ~vpn ~write in
  (match r with
  | Fast -> ()
  | Soft | Validated | Hard | Zero_filled | Rescued _ ->
      Histogram.record t.h_fault (Engine.now_of t.engine - t0));
  r

(* ------------------------------------------------------------------ *)
(* PagingDirected requests                                             *)
(* ------------------------------------------------------------------ *)

let rec prefetch t ~site ~urgent (asp : As.t) ~vpn =
  let stats = asp.As.stats in
  sys_delay Config.pm_call_ns;
  if not (As.mapped asp ~vpn) then P_already
  else begin
    Semaphore.acquire asp.As.as_lock;
    let p = As.get_raw asp ~vpn in
    let tag = As.Pte.tag p in
    if tag = As.Pte.tag_resident || tag = As.Pte.tag_in_transit then begin
      stats.prefetches_useless <- stats.prefetches_useless + 1;
      Semaphore.release asp.As.as_lock;
      update_limits t asp;
      P_already
    end
    else if tag = As.Pte.tag_on_free_list && not t.config.rescue_from_free_list
    then begin
      disassociate t t.frames.(As.Pte.frame p) Abandoned;
      Semaphore.release asp.As.as_lock;
      prefetch t asp ~site ~urgent ~vpn
    end
    else if tag = As.Pte.tag_on_free_list then begin
      Semaphore.acquire t.memory_lock;
      let result =
        (* Same packed word = same state and same frame. *)
        if As.get_raw asp ~vpn = p then begin
          stats.prefetch_rescues <- stats.prefetch_rescues + 1;
          ignore
            (rescue t asp t.frames.(As.Pte.frame p) ~vpn ~write:false
               ~prefetched:true
              : Vm_stats.freer);
          P_rescued
        end
        else P_already
      in
      Semaphore.release t.memory_lock;
      Semaphore.release asp.As.as_lock;
      update_limits t asp;
      result
    end
    else
      match
        if t.config.drop_prefetch_when_low then alloc_frame_opt t
        else begin
          (* Blocking for a frame gives up the as_lock; the PTE must be
             re-examined once it is reacquired (below). *)
          Semaphore.release asp.As.as_lock;
          let f = alloc_frame t in
          Semaphore.acquire asp.As.as_lock;
          Some f
        end
      with
      | None ->
          stats.prefetches_dropped <- stats.prefetches_dropped + 1;
          if Obs.on t.obs then
            emit t ~stream:asp.As.pid (Trace.Prefetch_dropped { vpn; site });
          Semaphore.release asp.As.as_lock;
          update_limits t asp;
          P_dropped
      | Some f ->
          (* While blocked in [alloc_frame] the as_lock was free: a
             concurrent demand fault (or another prefetch) may have
             installed this page.  Overwriting the PTE would leak that
             resident frame and corrupt rss, so re-check and surrender the
             spare frame if the prefetch lost the race. *)
          let tag' = As.Pte.tag (As.get_raw asp ~vpn) in
          if tag' = As.Pte.tag_swapped || tag' = As.Pte.tag_untouched then begin
            let ivar = start_page_in asp ~vpn in
            stats.prefetches_issued <- stats.prefetches_issued + 1;
            if Obs.on t.obs then
              emit t ~stream:asp.As.pid (Trace.Prefetch_issued { vpn; site });
            sys_delay Config.hard_fault_cpu_ns;
            finish_page_in t asp ~vpn f ivar
              ~zero:(tag' = As.Pte.tag_untouched) ~write:false
              ~prefetched:true ~background:(not urgent);
            update_limits t asp;
            P_fetched
          end
          else begin
            (* resident, in transit, or back on the free list *)
            stats.prefetches_useless <- stats.prefetches_useless + 1;
            if Obs.on t.obs then
              emit t ~stream:asp.As.pid (Trace.Prefetch_raced { vpn; site });
            Semaphore.acquire t.memory_lock;
            list_frame t f Free;
            Semaphore.release t.memory_lock;
            Semaphore.release asp.As.as_lock;
            update_limits t asp;
            P_already
          end
  end

(* Like [touch]: time prefetches that actually moved a page (I/O performed
   or rescued from the free list); useless and dropped requests are cheap
   no-ops and would only blur the service-time distribution. *)
let prefetch_inner = prefetch

let prefetch t ~site ~urgent asp ~vpn =
  let t0 = Engine.now_of t.engine in
  let r = prefetch_inner t asp ~site ~urgent ~vpn in
  (match r with
  | P_fetched | P_rescued ->
      let ns = Engine.now_of t.engine - t0 in
      Histogram.record t.h_prefetch ns;
      (* The completed fetch (or rescue) is the I/O span a later reference
         will not pay: the ledger credits it to the site once the page is
         actually touched, and the blame layer nets it out of the touching
         request's prefetch slack. *)
      if Obs.on t.obs then
        emit t ~stream:asp.As.pid (Trace.Prefetch_done { vpn; site; ns });
      let rq = Obs.reqtrace t.obs in
      if Reqtrace.enabled rq then
        Reqtrace.note_prefetch_done rq ~owner:asp.As.pid ~vpn ~ns
  | P_already | P_dropped -> ());
  r

let release_batch t (asp : As.t) batch =
  if Int_ring.width batch <> 3 then
    invalid_arg "Os.release_batch: batch must have width 3";
  let n = Int_ring.length batch in
  let stats = asp.As.stats in
  sys_delay Config.pm_call_ns;
  stats.releases_requested <- stats.releases_requested + n;
  (* The PM clears the residency bits at request time (section 3.1.2); any
     re-reference before the releaser acts will set them again and veto the
     release.  For the kernel to *observe* a re-reference of a still-mapped
     page, the mapping must be invalidated here: the re-reference then traps
     (a soft fault) and restores the bit.  This is also why releasing pages
     that are still in active use is not free. *)
  for i = 0 to n - 1 do
    let vpn = Int_ring.get batch i 0 in
    if As.mapped asp ~vpn then begin
      As.set_bit asp ~vpn false;
      let p = As.get_raw asp ~vpn in
      if As.Pte.tag p = As.Pte.tag_resident then begin
        let f = t.frames.(As.Pte.frame p) in
        if f.valid then begin
          f.valid <- false;
          f.release_invalidated <- true;
          Tlb.invalidate asp.As.tlb ~vpn
        end
      end
    end
  done;
  if Obs.on t.obs then
    emit t ~stream:asp.As.pid
      (Trace.Release_requested { owner = asp.As.pid; count = n });
  (* Queue the request; a releaser waiting for work takes it first. *)
  Int_ring.transfer ~src:batch ~dst:t.rel_pages n;
  Int_ring.push2 t.rel_reqs asp.As.pid n;
  ignore (Engine.wake_one t.releaser_wait : bool);
  update_limits t asp

let release_request t (asp : As.t) ~vpns =
  let batch = Int_ring.create ~width:3 in
  for i = 0 to Array.length vpns - 1 do
    Int_ring.push3 batch vpns.(i) Trace.no_site min_int
  done;
  release_batch t asp batch

(* ------------------------------------------------------------------ *)
(* Releaser daemon                                                     *)
(* ------------------------------------------------------------------ *)

(* Write back a batch of stolen/released dirty pages asynchronously (one
   fiber per page, so the striped disks all work and the daemon/releaser is
   never gated on write latency), moving each frame to the free list as its
   write completes — unless it left writeback during the write.  A
   recursion rather than [List.iter], whose closure would be allocated on
   every call, most of which (each releaser chunk of clean pages) write
   nothing. *)
let rec writeback_and_free t = function
  | [] -> ()
  | ((asp : As.t), vpn, (f : Fl.frame), prio) :: rest ->
      let owner = asp.As.pid in
      ignore
        (Engine.spawn_child ~name:"writeback" (fun () ->
             let page = As.swap_page asp ~vpn in
             (* The swap write is unconditional — it is the durable
                failover copy every tiered placement degrades to. *)
             Swap.write t.swap ~cat:Account.Io_stall ~background:true ~page;
             (match t.tiers with
             | None -> ()
             | Some tr ->
                 Tiers.demote tr ~page ~pid:owner ~vpn ~site:f.free_site
                   ~priority:prio;
                 (* Rescued while the write or placement was in flight:
                    the page is resident again, so the fast copy placed
                    a moment ago must go. *)
                 match Fl.state f with
                 | Free | Resident | Held -> Tiers.invalidate tr ~page
                 | _ -> ());
             Semaphore.acquire t.memory_lock;
             (* Still in writeback: list it, rescuable unless rescue is
                disabled.  A rescue during the write made it [Resident]
                (install_frame); a frame rescued, dirtied and freed again
                is in writeback again, and the first of its writes to
                complete lists it.  An abandoned frame is listed free. *)
             (match Fl.state f with
             | (Writeback_daemon | Writeback_releaser) as st ->
                 list_frame t f (Fl.rescuable (Fl.freer st));
                 if not t.config.rescue_from_free_list then
                   disassociate t f Free
             | Abandoned -> list_frame t f Free
             | _ -> ());
             Semaphore.release t.memory_lock;
             if Obs.on t.obs then
               emit t ~stream:Trace.writeback_stream
                 (Trace.Writeback_complete { vpn; owner })));
      writeback_and_free t rest

(* Process the [len] oldest pages of the releaser's queue, reading them
   straight from the ring and dropping them once read. *)
let releaser_process_batch t (asp : As.t) len =
  (* Phase A: under locks, identify pages that are still resident and have
     not been re-referenced (residency bit still clear), detach the clean
     ones to the free list, and collect dirty ones for writeback.  Nothing
     here blocks between reading the pages and dropping them, so a request
     posted meanwhile cannot move them. *)
  Semaphore.acquire asp.As.as_lock;
  Semaphore.acquire t.memory_lock;
  let pages = t.rel_pages in
  let stats = asp.As.stats in
  let writebacks = ref [] in
  for i = 0 to len - 1 do
    let vpn = Int_ring.get pages i 0 and site = Int_ring.get pages i 1 in
    if As.mapped asp ~vpn then begin
      let p = As.get_raw asp ~vpn in
      if (not (As.bit asp ~vpn)) && As.Pte.tag p = As.Pte.tag_resident then begin
        stats.freed_by_releaser <- stats.freed_by_releaser + 1;
        t.gstats.releaser_pages_freed <- t.gstats.releaser_pages_freed + 1;
        if Obs.on t.obs then
          emit t ~stream:Trace.releaser_stream
            (Trace.Releaser_free { vpn; owner = asp.As.pid; site });
        writebacks :=
          detach t asp t.frames.(As.Pte.frame p) ~freer:Vm_stats.Releaser
            ~site ~priority:(Int_ring.get pages i 2) !writebacks
      end
      else begin
        (* Re-referenced (or re-fetched) since the request, or untouched,
           swapped, already freed, or in transit: skip. *)
        stats.releases_skipped <- stats.releases_skipped + 1;
        if Obs.on t.obs then
          emit t ~stream:Trace.releaser_stream
            (Trace.Release_skipped { vpn; owner = asp.As.pid; site })
      end
    end
  done;
  Int_ring.drop pages len;
  (* The releaser is specialized: little per-page work while locks are
     held. *)
  sys_delay (Config.releaser_page_ns * len);
  Semaphore.release t.memory_lock;
  Semaphore.release asp.As.as_lock;
  t.gstats.releaser_batches <- t.gstats.releaser_batches + 1;
  (* Phase B: write back dirty pages in parallel without holding locks,
     then put the frames on the free list (unless rescued meanwhile). *)
  writeback_and_free t (List.rev !writebacks);
  update_limits t asp

(* Injected stall: sleep out the rest of the fault window before doing any
   work, as if the daemon were descheduled by a sick kernel. *)
let chaos_stall t who ~name =
  if not (Chaos.is_none t.chaos) then
    match Chaos.stall_until t.chaos who ~now:(Engine.now ()) with
    | None -> ()
    | Some until ->
        let d = until - Engine.now () in
        if d > 0 then begin
          if Obs.on t.obs then
            emit t ~stream:Trace.chaos_stream
              (Trace.Chaos_stall { who = name; until });
          Chaos.note_stall t.chaos who d;
          Engine.delay ~cat:Account.Sleep d
        end

(* Take the oldest request off the queue and process its pages in
   [Config.releaser_batch] chunks. *)
let releaser_request t =
  let pid = Int_ring.get t.rel_reqs 0 0 and n = Int_ring.get t.rel_reqs 0 1 in
  Int_ring.drop t.rel_reqs 1;
  let asp = t.spaces.(pid) in
  if
    (not (Chaos.is_none t.chaos))
    && Chaos.drop_directive t.chaos ~now:(Engine.now ())
  then begin
    (* Discarding a directive is safe — never corrupting: the requester
       already cleared the residency bits and invalidated the mappings, so
       the pages simply stay resident and the next touch soft-faults them
       back in. *)
    Int_ring.drop t.rel_pages n;
    if Obs.on t.obs then
      emit t ~stream:Trace.chaos_stream
        (Trace.Chaos_drop_directive { count = n })
  end
  else begin
    chaos_stall t `Releaser ~name:"releaser";
    let i = ref 0 in
    while !i < n do
      let len = Int.min Config.releaser_batch (n - !i) in
      releaser_process_batch t asp len;
      i := !i + len
    done
  end

(* The releaser waits for work only while its queue is empty; the request
   whose post woke it is queued when it resumes. *)
let releaser_loop t () =
  while true do
    while Int_ring.length t.rel_reqs = 0 do
      ignore (Engine.wait ~cat:Account.Sleep t.releaser_wait : Time_ns.t)
    done;
    releaser_request t
  done

(* ------------------------------------------------------------------ *)
(* Paging daemon                                                       *)
(* ------------------------------------------------------------------ *)

let over_rss t =
  let over = ref false and pid = ref 0 in
  while (not !over) && !pid < t.next_pid do
    over := t.spaces.(!pid).As.rss > t.config.maxrss;
    incr pid
  done;
  !over

let memory_pressure t = Fl.length t.free < t.config.min_freemem || over_rss t

let reached_target t = Fl.length t.free >= t.config.desfree && not (over_rss t)

(* Frame conservation from the state counts, in O(processes): checked at
   every daemon tick and by [check_invariants]. *)
let conserved t =
  let rss = ref 0 in
  for pid = 0 to t.next_pid - 1 do
    rss := !rss + t.spaces.(pid).As.rss
  done;
  Fl.conserved t.free ~resident:!rss

(* Process one frame under the owner's locks; a frame stolen dirty is
   consed onto [writebacks], which is returned. *)
let daemon_visit_frame t (asp : As.t) (f : Fl.frame) ~free_shortage writebacks =
  let cfg = t.config in
  let stats = asp.As.stats in
  t.gstats.daemon_frames_scanned <- t.gstats.daemon_frames_scanned + 1;
  let referenced_since_last_visit =
    if cfg.hw_ref_bits then begin
      let r = f.referenced in
      f.referenced <- false;
      r
    end
    else f.valid
  in
  if referenced_since_last_visit && not f.prefetched then begin
    (* Sample the reference: with software bits this *invalidates* the page,
       and the next touch will take a soft fault. *)
    if not cfg.hw_ref_bits then begin
      f.valid <- false;
      f.release_invalidated <- false;
      Tlb.invalidate asp.As.tlb ~vpn:f.vpn;
      stats.invalidations <- stats.invalidations + 1;
      t.gstats.daemon_invalidations <- t.gstats.daemon_invalidations + 1;
      if Obs.on t.obs then
        emit t ~stream:Trace.daemon_stream
          (Trace.Daemon_invalidate { vpn = f.vpn; owner = asp.As.pid })
    end;
    f.age <- 0;
    writebacks
  end
  else begin
    f.age <- f.age + 1;
    let eligible = free_shortage || asp.As.rss > cfg.maxrss in
    if f.age >= Config.clock_ages_to_steal && eligible then begin
      (* Steal: the application may have registered a reactive eviction
         advisor (section 2.2) naming a page it would rather surrender;
         otherwise the clock's choice stands. *)
      let victim =
        match Hashtbl.find_opt t.advisors asp.As.pid with
        | Some advise -> (
            let rec pick budget =
              if budget = 0 then f
              else
                match advise () with
                | None -> f
                | Some vpn ->
                    let p =
                      if As.mapped asp ~vpn then As.get_raw asp ~vpn
                      else As.Pte.untouched
                    in
                    if As.Pte.tag p = As.Pte.tag_resident then
                      t.frames.(As.Pte.frame p)
                    else pick (budget - 1)
            in
            pick 8)
        | None -> f
      in
      As.set_bit asp ~vpn:victim.vpn false;
      Tlb.invalidate asp.As.tlb ~vpn:victim.vpn;
      stats.freed_by_daemon <- stats.freed_by_daemon + 1;
      t.gstats.daemon_pages_stolen <- t.gstats.daemon_pages_stolen + 1;
      if Obs.on t.obs then
        emit t ~stream:Trace.daemon_stream
          (Trace.Daemon_steal { vpn = victim.vpn; owner = asp.As.pid });
      detach t asp victim ~freer:Vm_stats.Daemon ~site:Trace.no_site
        ~priority:min_int writebacks
    end
    else writebacks
  end

(* Scan up to [daemon_batch] frames from the clock hand.  Frames are grouped
   by owner: the daemon holds the owner's address-space lock (and the memory
   lock) for the whole run of consecutive same-owner frames, which is what
   starves fault handling under memory pressure. *)
let daemon_scan_batch t =
  let cfg = t.config in
  let nframes = Array.length t.frames in
  let free_shortage = Free_list.length t.free < cfg.desfree in
  let writebacks = ref [] in
  let scanned = ref 0 in
  while !scanned < cfg.daemon_batch do
    let f = t.frames.(t.clock_hand) in
    t.clock_hand <- (t.clock_hand + 1) mod nframes;
    if Fl.state f = Resident then begin
      let asp = t.spaces.(f.owner) in
      (* Gather the run of frames with the same owner. *)
      Semaphore.acquire asp.As.as_lock;
      Semaphore.acquire t.memory_lock;
      let run = ref 0 in
      let continue_run = ref true in
      let current = ref f in
      while !continue_run do
        let fr = !current in
        if Fl.state fr = Resident && fr.owner = asp.As.pid then begin
          writebacks := daemon_visit_frame t asp fr ~free_shortage !writebacks;
          incr run;
          incr scanned;
          if !scanned >= cfg.daemon_batch then continue_run := false
          else begin
            let next = t.frames.(t.clock_hand) in
            (* A frame of this owner in writeback continues the run too,
               and the test above then ends it: the hand passes that frame
               without counting it as scanned.  Testing [Resident] alone
               here would move the hand, and every gate with it: a
               behaviour change, not a cleanup. *)
            if
              match Fl.state next with
              | Resident | Writeback_daemon | Writeback_releaser ->
                  next.owner = asp.As.pid
              | _ -> false
            then begin
              t.clock_hand <- (t.clock_hand + 1) mod nframes;
              current := next
            end
            else continue_run := false
          end
        end
        else continue_run := false
      done;
      (* Long lock hold: per-page processing cost for the whole run.
         Sampling a hardware reference bit is far cheaper than
         invalidating a mapping (no TLB shootdown IPIs). *)
      let per_page =
        if cfg.hw_ref_bits then Config.daemon_page_scan_ns / 8
        else Config.daemon_page_scan_ns
      in
      sys_delay (per_page * Int.max 1 !run);
      Semaphore.release t.memory_lock;
      Semaphore.release asp.As.as_lock
    end
    else incr scanned
  done;
  (* Writebacks happen without locks, in parallel; frames reach the free
     list as each write completes. *)
  writeback_and_free t (List.rev !writebacks)

(* The daemon is paced like IRIX's vhand: it wakes at a fixed interval and,
   while memory pressure persists, advances the clock hand by one batch per
   wakeup.  Pacing matters: the gap between the invalidation pass and the
   stealing pass over a frame is what gives processes a chance to
   re-reference (soft fault) pages still in their working set, and it makes
   the hand's cycle time scale with memory size — the property that lets an
   idle interactive task keep its pages for a while (Figure 1). *)
(* A tick is the timer's event and the daemon's wait for it, the waited
   time charged as [Sleep] like a plain delay's.  That is two engine events
   where a delay would be one; perfbench's seed-42 digests count engine
   events, so the tick keeps both. *)
let daemon_sleep t d =
  Engine.arm t.tick_timer d;
  ignore (Engine.wait ~cat:Account.Sleep t.daemon_tick : Time_ns.t)

let paging_daemon_loop t () =
  let cfg = t.config in
  let active = ref false in
  while true do
    daemon_sleep t cfg.daemon_interval_ns;
    if Option.is_none t.unconserved_at && not (conserved t) then
      t.unconserved_at <- Some (Engine.now ());
    chaos_stall t `Daemon ~name:"daemon";
    if Obs.on t.obs then
      emit t ~stream:Trace.kernel_stream
        (Trace.Free_depth { pages = Free_list.length t.free });
    if !active then begin
      if reached_target t then active := false
      else begin
        daemon_scan_batch t;
        (* Under severe shortage (free list near empty, allocators possibly
           blocked), scan harder within the tick, like vhand under
           pressure. *)
        let extra = ref 0 in
        while Free_list.length t.free < cfg.min_freemem && !extra < 4 do
          incr extra;
          daemon_scan_batch t
        done
      end
    end
    else if memory_pressure t then begin
      active := true;
      t.gstats.daemon_activations <- t.gstats.daemon_activations + 1;
      daemon_scan_batch t
    end
  done

(* ------------------------------------------------------------------ *)
(* Phantom memory-pressure competitor                                  *)
(* ------------------------------------------------------------------ *)

(* Walk the plan's pressure spikes: at each start time grab up to [pages]
   frames straight off the free list (slamming [tot_freemem] the way a
   surging sibling process would), hold them, then give them back.  Grabbed
   frames are [Held], like frames being filled by a fault, so the
   structural invariants keep holding mid-spike. *)
let chaos_phantom_loop t spikes () =
  List.iter
    (fun (start, pages, hold) ->
      let now = Engine.now () in
      if start > now then Engine.delay ~cat:Account.Sleep (start - now);
      Semaphore.acquire t.memory_lock;
      let grabbed = ref [] in
      let n = ref 0 in
      let exhausted = ref false in
      while (not !exhausted) && !n < pages do
        match Fl.head t.free with
        | Some f ->
            disassociate t f Held;
            grabbed := f :: !grabbed;
            incr n
        | None -> exhausted := true
      done;
      Semaphore.release t.memory_lock;
      if !n > 0 then begin
        Chaos.note_pressure t.chaos ~pages:!n;
        if Obs.on t.obs then
          emit t ~stream:Trace.chaos_stream
            (Trace.Chaos_pressure { pages = !n; hold });
        Engine.delay ~cat:Account.Sleep hold;
        Semaphore.acquire t.memory_lock;
        List.iter (fun f -> list_frame t f Free) !grabbed;
        Semaphore.release t.memory_lock;
        if Obs.on t.obs then
          emit t ~stream:Trace.chaos_stream
            (Trace.Chaos_pressure_end { pages = !n })
      end)
    spikes

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?swap_config ?tiers:tiers_spec ?(obs = Obs.null)
    ?(chaos = Chaos.none) ~config:(cfg : Config.t) ~engine () =
  let swap =
    Swap.create ?config:swap_config ~chaos ~obs ~page_bytes:cfg.page_bytes ()
  in
  let free = Fl.create cfg.total_frames in
  let daemon_tick = Engine.queue () in
  let t =
    {
      config = cfg;
      engine;
      swap;
      tiers = None;
      frames = Fl.frames free;
      free;
      free_cond = Condition.create ~name:"free-memory" ();
      memory_lock = Semaphore.create ~name:"memory-lock" 1;
      cpus = Semaphore.create ~name:"cpus" Config.num_cpus;
      spaces = [||];
      rel_pages = Int_ring.create ~width:3;
      rel_reqs = Int_ring.create ~width:2;
      releaser_wait = Engine.queue ();
      gstats = Vm_stats.create_global ();
      obs;
      chaos;
      h_fault = Histogram.create ();
      h_prefetch = Histogram.create ();
      advisors = Hashtbl.create 4;
      clock_hand = 0;
      next_pid = 0;
      next_swap_page = 0;
      daemon_tick;
      tick_timer =
        Engine.timer engine (fun () ->
            ignore (Engine.wake_one daemon_tick : bool));
      unconserved_at = None;
    }
  in
  let trace = Obs.trace obs in
  (match tiers_spec with
  | None -> ()
  | Some spec ->
      Trace.set_stream_name trace Trace.tier_stream "tiers";
      t.tiers <-
        Some
          (Tiers.create ~obs ~chaos ~engine ~page_bytes:cfg.page_bytes ~swap
             spec ()));
  Trace.set_stream_name trace Trace.daemon_stream "paging-daemon";
  Trace.set_stream_name trace Trace.releaser_stream "releaser-daemon";
  Trace.set_stream_name trace Trace.writeback_stream "writeback";
  Trace.set_stream_name trace Trace.kernel_stream "kernel";
  Trace.set_stream_name trace Trace.disk_stream "disk";
  ignore (Engine.spawn engine ~name:"paging-daemon" (paging_daemon_loop t));
  ignore (Engine.spawn engine ~name:"releaser-daemon" (releaser_loop t));
  if not (Chaos.is_none chaos) then
    Trace.set_stream_name trace Trace.chaos_stream "chaos";
  (match Chaos.pressure_spikes chaos with
  | [] -> ()
  | spikes ->
      ignore
        (Engine.spawn engine ~name:"chaos-phantom" (chaos_phantom_loop t spikes)));
  t

let set_eviction_advisor t (asp : As.t) advise =
  Hashtbl.replace t.advisors asp.As.pid advise

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

(* The address space of [pid], if it names one. *)
let space t pid =
  if pid >= 0 && pid < t.next_pid then Some t.spaces.(pid) else None

let check_invariants t =
  (* One walk over the frame table: a frame that keeps a page is the one
     its owner's PTE names, [Resident] while resident and [On_free_list]
     while listed for a rescue or in writeback.  Free, held and abandoned
     frames keep no page. *)
  let maps (f : Fl.frame) word =
    match space t f.owner with
    | None -> false
    | Some asp -> As.mapped asp ~vpn:f.vpn && As.get_raw asp ~vpn:f.vpn = word
  in
  let ok_frames =
    Array.for_all
      (fun (f : Fl.frame) ->
        match Fl.state f with
        | Resident -> maps f (As.Pte.resident f.idx)
        | Rescuable_daemon | Rescuable_releaser | Writeback_daemon
        | Writeback_releaser ->
            maps f (As.Pte.on_free_list f.idx)
        | _ -> true)
      t.frames
  in
  let ok_rss =
    Array.for_all
      (fun asp -> As.resident_pages asp = asp.As.rss)
      (Array.sub t.spaces 0 t.next_pid)
  in
  (* Every linked frame is listed and the links number the list's length,
     so with conservation they reach each listed frame once.  (A frame
     linked twice closes a cycle, which this walk would not leave.) *)
  let ok_links =
    let linked = ref 0 and ok = ref true in
    Fl.iter t.free (fun f ->
        incr linked;
        if not (Fl.listed (Fl.state f)) then ok := false);
    !ok && !linked = Fl.length t.free
  in
  let in_run = "frame conservation held at every paging-daemon tick" in
  (* Tiered store: reconcile the router's location map against frame-table
     residency — a page must never be simultaneously resident and
     tier-resident — and the zram occupancy against the map. *)
  let tier_checks =
    match t.tiers with
    | None -> []
    | Some tr ->
        Tiers.check tr ~resident:(fun ~pid ~vpn ->
            match space t pid with
            | None -> false
            | Some asp ->
                As.mapped asp ~vpn
                && As.Pte.tag (As.get_raw asp ~vpn) = As.Pte.tag_resident)
  in
  [
    ("frames agree with their owners' PTEs", ok_frames);
    ("rss counters match page tables", ok_rss);
    ( "frame conservation: the state counts sum to the frames, resident = \
       rss, listed = free-list length",
      conserved t );
    (match t.unconserved_at with
    | None -> (in_run, true)
    | Some at -> (in_run ^ ": first broken at " ^ Time_ns.to_string at, false));
    ("free-list links reach each listed frame once", ok_links);
  ]
  @ tier_checks

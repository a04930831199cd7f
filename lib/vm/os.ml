open Memhog_sim
module As = Address_space
module Swap = Memhog_disk.Swap

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
  frames : Frame.t array;
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

let sys_delay t d = ignore t; Engine.delay ~cat:Account.System d

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

(* Break a free frame's association with its previous page: the previous
   owner loses its chance to rescue.  Caller holds [memory_lock].
   [reused] is true when the frame is being handed to a new allocation (the
   free genuinely relieved pressure) and false when the disassociation is
   bookkeeping at free time (rescue disabled) — only the former is a
   [Frame_reused] lifecycle event. *)
let disassociate ?(reused = true) t (f : Frame.t) =
  if f.owner >= 0 then begin
    let victim = t.spaces.(f.owner) in
    (match f.freed_by with
    | Some Vm_stats.Daemon ->
        victim.As.stats.lost_daemon <- victim.As.stats.lost_daemon + 1
    | Some Vm_stats.Releaser ->
        victim.As.stats.lost_releaser <- victim.As.stats.lost_releaser + 1
    | None -> ());
    if
      As.mapped victim ~vpn:f.vpn
      && As.get_raw victim ~vpn:f.vpn = As.Pte.on_free_list f.idx
    then As.set_raw victim ~vpn:f.vpn As.Pte.swapped;
    if reused && f.freed_by <> None && Obs.on t.obs then
      Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.kernel_stream
        (Trace.Frame_reused { vpn = f.vpn; owner = f.owner });
    Frame.reset_association f
  end

(* Pop a frame from the free list, blocking until one is available.
   Returns with no locks held. *)
let rec alloc_frame_blocking t ~(for_ : As.t) =
  Semaphore.acquire t.memory_lock;
  match Free_list.pop_head t.free with
  | Some f ->
      disassociate t f;
      t.gstats.allocations <- t.gstats.allocations + 1;
      Semaphore.release t.memory_lock;
      f
  | None ->
      t.gstats.allocation_waits <- t.gstats.allocation_waits + 1;
      Semaphore.release t.memory_lock;
      Condition.wait t.free_cond;
      alloc_frame_blocking t ~for_

(* Non-blocking variant for prefetch: section 3.1.2 — "if there is no free
   memory, the request is discarded immediately". *)
let alloc_frame_opt t =
  Semaphore.acquire t.memory_lock;
  let result =
    match Free_list.pop_head t.free with
    | Some f ->
        disassociate t f;
        t.gstats.allocations <- t.gstats.allocations + 1;
        Some f
    | None -> None
  in
  Semaphore.release t.memory_lock;
  result

(* Put a frame on the free list tail, remembering the page it held so it can
   be rescued.  Caller holds [memory_lock] and the owner's as_lock, and has
   already updated the PTE to [On_free_list]. *)
let free_frame_locked t (f : Frame.t) ~(freer : Vm_stats.freer) ~site =
  f.valid <- false;
  if not t.config.rescue_from_free_list then disassociate ~reused:false t f;
  f.prefetched <- false;
  f.referenced <- false;
  f.age <- 0;
  (* constant options: a freed page allocates nothing *)
  f.freed_by <-
    (match freer with
    | Vm_stats.Daemon -> Some Vm_stats.Daemon
    | Vm_stats.Releaser -> Some Vm_stats.Releaser);
  f.free_site <- site;
  Free_list.push_tail t.free f;
  Condition.broadcast t.free_cond

(* With rescue disabled, a page whose writeback is still in flight cannot
   be reclaimed by its owner: the toucher abandons it (PTE -> Swapped, frame
   disassociated but still marked freed so the writeback fiber returns it to
   the free list) and demand-fetches a fresh copy.  Caller holds the
   owner's as_lock. *)
let abandon_in_writeback t asp ~vpn fidx =
  let f = t.frames.(fidx) in
  let freer = f.Frame.freed_by in
  Frame.reset_association f;
  f.Frame.freed_by <- freer;
  As.set_raw asp ~vpn As.Pte.swapped

(* ------------------------------------------------------------------ *)
(* Process setup                                                       *)
(* ------------------------------------------------------------------ *)

let new_process t ~name =
  let pid = t.next_pid in
  let asp = As.create ~tlb_entries:t.config.tlb_entries ~pid ~name () in
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
(* Fault handling                                                      *)
(* ------------------------------------------------------------------ *)

let install_frame t (asp : As.t) ~vpn (f : Frame.t) ~write ~prefetched =
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
  f.freed_by <- None;
  f.free_site <- Trace.no_site;
  As.set_raw asp ~vpn (As.Pte.resident f.idx);
  asp.As.rss <- asp.As.rss + 1;
  As.set_bit asp ~vpn true;
  (* a demand-installed page enters the TLB; a prefetched page does so only
     when section 3.1.2's no-TLB-entry feature is disabled *)
  if (not prefetched) || t.config.prefetch_fills_tlb then
    Tlb.insert asp.As.tlb ~vpn;
  update_limits t asp

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
      Engine.delay ~cat:Account.System t.config.tlb_refill_ns;
    Fast
  end
  else fault t asp ~vpn ~write

and fault t asp ~vpn ~write =
  let cfg = t.config in
  let stats = asp.As.stats in
  Semaphore.acquire asp.As.as_lock;
  (* Re-examine under the lock: the world may have changed while waiting.
     Dispatch on the packed tag (if/else: tags are named constants, not
     literals, so they cannot head a pattern match). *)
  let result =
    let p = As.get_raw asp ~vpn in
    let tag = As.Pte.tag p in
    if tag = As.Pte.tag_resident then begin
        let f = t.frames.(As.Pte.frame p) in
        if f.prefetched then begin
          (* First touch of a prefetched page: cheap validation fault. *)
          f.prefetched <- false;
          f.valid <- true;
          f.referenced <- true;
          f.age <- 0;
          if write then f.dirty <- true;
          stats.validation_faults <- stats.validation_faults + 1;
          if Obs.on t.obs then
            Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
              (Trace.Validation_fault { vpn });
          As.set_bit asp ~vpn true;
          Tlb.insert asp.As.tlb ~vpn;
          sys_delay t cfg.validation_fault_ns;
          Semaphore.release asp.As.as_lock;
          Validated
        end
        else if not f.valid then begin
          (* Soft fault: revalidate after an invalidation (by the daemon's
             reference sampling, or by a release request). *)
          f.valid <- true;
          f.referenced <- true;
          f.age <- 0;
          if write then f.dirty <- true;
          stats.soft_faults <- stats.soft_faults + 1;
          if Obs.on t.obs then
            Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
              (Trace.Soft_fault { vpn });
          if not f.release_invalidated then
            stats.soft_faults_daemon <- stats.soft_faults_daemon + 1;
          f.release_invalidated <- false;
          As.set_bit asp ~vpn true;
          Tlb.insert asp.As.tlb ~vpn;
          sys_delay t cfg.soft_fault_ns;
          Semaphore.release asp.As.as_lock;
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
    else if tag = As.Pte.tag_on_free_list && not cfg.rescue_from_free_list
    then begin
        (* Rescue disabled: the only way a PTE still points at a freed frame
           is a writeback in flight.  Abandon it and demand-fetch. *)
        abandon_in_writeback t asp ~vpn (As.Pte.frame p);
        Semaphore.release asp.As.as_lock;
        touch t asp ~vpn ~write
    end
    else if tag = As.Pte.tag_on_free_list then begin
        (* Rescue path. *)
        let fidx = As.Pte.frame p in
        Semaphore.acquire t.memory_lock;
        (* Same packed word = same state and same frame. *)
        if As.get_raw asp ~vpn = p then begin
            let f = t.frames.(fidx) in
            let freer =
              match f.freed_by with Some w -> w | None -> Vm_stats.Daemon
            in
            if f.on_free_list then Free_list.remove t.free f;
            (* else: writeback still pending; the writer re-checks the PTE
               before pushing, so claiming the frame here is safe. *)
            (match freer with
            | Vm_stats.Daemon -> stats.rescued_daemon <- stats.rescued_daemon + 1
            | Vm_stats.Releaser ->
                stats.rescued_releaser <- stats.rescued_releaser + 1);
            if Obs.on t.obs then
              Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
                (Trace.Rescue
                   { vpn; for_prefetch = false; site = f.free_site });
            install_frame t asp ~vpn f ~write ~prefetched:false;
            sys_delay t cfg.rescue_ns;
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
        let ivar = Ivar.create () in
        As.set_in_transit asp ~vpn ivar;
        Semaphore.release asp.As.as_lock;
        let f = alloc_frame_blocking t ~for_:asp in
        sys_delay t cfg.hard_fault_cpu_ns;
        if zero then begin
          stats.zero_fills <- stats.zero_fills + 1;
          if Obs.on t.obs then
            Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
              (Trace.Zero_fill { vpn });
          sys_delay t cfg.zero_fill_ns
        end
        else begin
          stats.hard_faults <- stats.hard_faults + 1;
          if Obs.on t.obs then
            Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
              (Trace.Hard_fault { vpn });
          backing_read t ~background:false ~page:(As.swap_page asp ~vpn)
        end;
        Semaphore.acquire asp.As.as_lock;
        (* A zero-filled page is dirty from birth: its contents exist
           nowhere else. *)
        install_frame t asp ~vpn f ~write:(write || zero) ~prefetched:false;
        Ivar.fill ivar ();
        Semaphore.release asp.As.as_lock;
        if zero then Zero_filled else Hard
    end
  in
  result

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
  let cfg = t.config in
  let stats = asp.As.stats in
  sys_delay t cfg.pm_call_ns;
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
      else if tag = As.Pte.tag_on_free_list && not cfg.rescue_from_free_list
      then begin
        abandon_in_writeback t asp ~vpn (As.Pte.frame p);
        Semaphore.release asp.As.as_lock;
        prefetch t asp ~site ~urgent ~vpn
      end
      else if tag = As.Pte.tag_on_free_list then begin
        let fidx = As.Pte.frame p in
        Semaphore.acquire t.memory_lock;
        let result =
          (* Same packed word = same state and same frame. *)
          if As.get_raw asp ~vpn = p then begin
            let f = t.frames.(fidx) in
            if f.on_free_list then Free_list.remove t.free f;
            stats.prefetch_rescues <- stats.prefetch_rescues + 1;
            if Obs.on t.obs then
              Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
                (Trace.Rescue { vpn; for_prefetch = true; site = f.free_site });
            (match f.freed_by with
            | Some Vm_stats.Daemon ->
                stats.rescued_daemon <- stats.rescued_daemon + 1
            | Some Vm_stats.Releaser ->
                stats.rescued_releaser <- stats.rescued_releaser + 1
            | None -> ());
            install_frame t asp ~vpn f ~write:false ~prefetched:true;
            P_rescued
          end
          else P_already
        in
        Semaphore.release t.memory_lock;
        Semaphore.release asp.As.as_lock;
        update_limits t asp;
        result
      end
      else (
          match
            (if t.config.drop_prefetch_when_low then alloc_frame_opt t
             else begin
               (* Blocking for a frame gives up the as_lock; the PTE must be
                  re-examined once it is reacquired (below). *)
               Semaphore.release asp.As.as_lock;
               let f = alloc_frame_blocking t ~for_:asp in
               Semaphore.acquire asp.As.as_lock;
               Some f
             end)
          with
          | None ->
              stats.prefetches_dropped <- stats.prefetches_dropped + 1;
              if Obs.on t.obs then
                Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
                  (Trace.Prefetch_dropped { vpn; site });
              Semaphore.release asp.As.as_lock;
              update_limits t asp;
              P_dropped
          | Some f ->
              (* While blocked in alloc_frame_blocking the as_lock was free:
                 a concurrent demand fault (or another prefetch) may have
                 installed this page.  Overwriting the PTE would leak that
                 resident frame and corrupt rss, so re-check and surrender
                 the spare frame if the prefetch lost the race. *)
              let tag' = As.Pte.tag (As.get_raw asp ~vpn) in
              if tag' = As.Pte.tag_swapped || tag' = As.Pte.tag_untouched
              then begin
                let zero = tag' = As.Pte.tag_untouched in
                let ivar = Ivar.create () in
                As.set_in_transit asp ~vpn ivar;
                Semaphore.release asp.As.as_lock;
                stats.prefetches_issued <- stats.prefetches_issued + 1;
                if Obs.on t.obs then
                  Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
                    (Trace.Prefetch_issued { vpn; site });
                sys_delay t cfg.hard_fault_cpu_ns;
                if zero then sys_delay t cfg.zero_fill_ns
                else
                  backing_read t ~background:(not urgent)
                    ~page:(As.swap_page asp ~vpn);
                Semaphore.acquire asp.As.as_lock;
                install_frame t asp ~vpn f ~write:zero ~prefetched:true;
                Ivar.fill ivar ();
                Semaphore.release asp.As.as_lock;
                update_limits t asp;
                P_fetched
              end
              else begin
                (* resident, in transit, or back on the free list *)
                stats.prefetches_useless <- stats.prefetches_useless + 1;
                if Obs.on t.obs then
                  Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
                    (Trace.Prefetch_raced { vpn; site });
                Semaphore.acquire t.memory_lock;
                Free_list.push_tail t.free f;
                Condition.broadcast t.free_cond;
                Semaphore.release t.memory_lock;
                Semaphore.release asp.As.as_lock;
                update_limits t asp;
                P_already
              end)
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
        Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
          (Trace.Prefetch_done { vpn; site; ns });
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
  sys_delay t t.config.pm_call_ns;
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
    Obs.emit t.obs ~time:(Engine.now ()) ~stream:asp.As.pid
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
   write completes — unless it was rescued during the write.  A recursion
   rather than [List.iter], whose closure would be allocated on every call,
   most of which (each releaser chunk of clean pages) write nothing. *)
let rec writeback_and_free t = function
  | [] -> ()
  | ((asp : As.t), vpn, (f : Frame.t), prio) :: rest ->
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
                 if f.freed_by = None then Tiers.invalidate tr ~page);
             Semaphore.acquire t.memory_lock;
             (* Still marked freed and not yet listed: return it.  A rescue
                during the write clears the marker (install_frame). *)
             (if f.freed_by <> None && not f.on_free_list then begin
                Free_list.push_tail t.free f;
                if not t.config.rescue_from_free_list then
                  disassociate ~reused:false t f;
                Condition.broadcast t.free_cond
              end);
             Semaphore.release t.memory_lock;
             if Obs.on t.obs then
               Obs.emit t.obs ~time:(Engine.now ())
                 ~stream:Trace.writeback_stream
                 (Trace.Writeback_complete { vpn; owner })));
      writeback_and_free t rest

(* Process the [len] oldest pages of the releaser's queue, reading them
   straight from the ring and dropping them once read. *)
let releaser_process_batch t (asp : As.t) len =
  let cfg = t.config in
  (* Phase A: under locks, identify pages that are still resident and have
     not been re-referenced (residency bit still clear), detach the clean
     ones to the free list, and collect dirty ones for writeback.  Nothing
     here blocks between reading the pages and dropping them, so a request
     posted meanwhile cannot move them. *)
  Semaphore.acquire asp.As.as_lock;
  Semaphore.acquire t.memory_lock;
  let pages = t.rel_pages in
  let writebacks = ref [] in
  for i = 0 to len - 1 do
    let vpn = Int_ring.get pages i 0 and site = Int_ring.get pages i 1 in
    if As.mapped asp ~vpn then begin
        if As.bit asp ~vpn then begin
          (* Re-referenced (or re-fetched) since the request: skip. *)
          asp.As.stats.releases_skipped <- asp.As.stats.releases_skipped + 1;
          if Obs.on t.obs then
            Obs.emit t.obs ~time:(Engine.now ())
              ~stream:Trace.releaser_stream
              (Trace.Release_skipped { vpn; owner = asp.As.pid; site })
        end
        else
          let p = As.get_raw asp ~vpn in
          if As.Pte.tag p = As.Pte.tag_resident then begin
              let fidx = As.Pte.frame p in
              let f = t.frames.(fidx) in
              As.set_raw asp ~vpn (As.Pte.on_free_list fidx);
              asp.As.rss <- asp.As.rss - 1;
              asp.As.stats.freed_by_releaser <-
                asp.As.stats.freed_by_releaser + 1;
              t.gstats.releaser_pages_freed <- t.gstats.releaser_pages_freed + 1;
              if Obs.on t.obs then
                Obs.emit t.obs ~time:(Engine.now ())
                  ~stream:Trace.releaser_stream
                  (Trace.Releaser_free { vpn; owner = asp.As.pid; site });
              if f.dirty then begin
                f.dirty <- false;
                f.valid <- false;
                f.prefetched <- false;
                f.referenced <- false;
                f.freed_by <- Some Vm_stats.Releaser;
                f.free_site <- site;
                asp.As.stats.writebacks <- asp.As.stats.writebacks + 1;
                let prio = Int_ring.get pages i 2 in
                let prio = if prio = min_int then None else Some prio in
                writebacks := (asp, vpn, f, prio) :: !writebacks
              end
              else free_frame_locked t f ~freer:Vm_stats.Releaser ~site
          end
          else begin
              (* untouched, swapped, already freed, or in transit *)
              asp.As.stats.releases_skipped <- asp.As.stats.releases_skipped + 1;
              if Obs.on t.obs then
                Obs.emit t.obs ~time:(Engine.now ())
                  ~stream:Trace.releaser_stream
                  (Trace.Release_skipped { vpn; owner = asp.As.pid; site })
          end
    end
  done;
  Int_ring.drop pages len;
  (* The releaser is specialized: little per-page work while locks are
     held. *)
  sys_delay t (cfg.releaser_page_ns * len);
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
            Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.chaos_stream
              (Trace.Chaos_stall { who = name; until });
          Chaos.note_stall t.chaos who d;
          Engine.delay ~cat:Account.Sleep d
        end

(* Take the oldest request off the queue and process its pages in
   [releaser_batch] chunks. *)
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
      Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.chaos_stream
        (Trace.Chaos_drop_directive { count = n })
  end
  else begin
    chaos_stall t `Releaser ~name:"releaser";
    let batch = t.config.releaser_batch in
    let i = ref 0 in
    while !i < n do
      let len = Int.min batch (n - !i) in
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

let memory_pressure t = Free_list.length t.free < t.config.min_freemem || over_rss t

let reached_target t = Free_list.length t.free >= t.config.desfree && not (over_rss t)

(* Process one frame under the owner's locks; returns a pending writeback if
   the frame was stolen dirty. *)
let rec daemon_visit_frame t (asp : As.t) (f : Frame.t) ~free_shortage =
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
        Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.daemon_stream
          (Trace.Daemon_invalidate { vpn = f.vpn; owner = asp.As.pid })
    end;
    f.age <- 0;
    None
  end
  else begin
    f.age <- f.age + 1;
    let eligible = free_shortage || asp.As.rss > cfg.maxrss in
    if f.age >= cfg.clock_ages_to_steal && eligible then begin
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
      daemon_steal t asp victim
    end
    else None
  end

(* Detach [f] from its owner to the free list on the daemon's behalf.
   Caller holds the owner's as_lock and the memory lock.  Returns a pending
   writeback when the page was dirty. *)
and daemon_steal t (asp : As.t) (f : Frame.t) =
  let stats = asp.As.stats in
  As.set_raw asp ~vpn:f.vpn (As.Pte.on_free_list f.idx);
  As.set_bit asp ~vpn:f.vpn false;
  Tlb.invalidate asp.As.tlb ~vpn:f.vpn;
  asp.As.rss <- asp.As.rss - 1;
  stats.freed_by_daemon <- stats.freed_by_daemon + 1;
  t.gstats.daemon_pages_stolen <- t.gstats.daemon_pages_stolen + 1;
  if Obs.on t.obs then
    Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.daemon_stream
      (Trace.Daemon_steal { vpn = f.vpn; owner = asp.As.pid });
  if f.dirty then begin
    f.dirty <- false;
    f.valid <- false;
    f.prefetched <- false;
    f.referenced <- false;
    f.freed_by <- Some Vm_stats.Daemon;
    f.free_site <- Trace.no_site;
    stats.writebacks <- stats.writebacks + 1;
    Some (asp, f.vpn, f, None)
  end
  else begin
    free_frame_locked t f ~freer:Vm_stats.Daemon ~site:Trace.no_site;
    None
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
    if (not f.on_free_list) && f.owner >= 0 && f.freed_by = None then begin
      let asp = t.spaces.(f.owner) in
      (* Gather the run of frames with the same owner. *)
      Semaphore.acquire asp.As.as_lock;
      Semaphore.acquire t.memory_lock;
      let run = ref 0 in
      let continue_run = ref true in
      let current = ref f in
      while !continue_run do
        let fr = !current in
        if
          (not fr.on_free_list)
          && fr.owner = asp.As.pid
          && fr.freed_by = None
        then begin
          (match daemon_visit_frame t asp fr ~free_shortage with
          | Some wb -> writebacks := wb :: !writebacks
          | None -> ());
          incr run;
          incr scanned;
          if !scanned >= cfg.daemon_batch then continue_run := false
          else begin
            let next = t.frames.(t.clock_hand) in
            if (not next.on_free_list) && next.owner = asp.As.pid then begin
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
        if cfg.hw_ref_bits then cfg.daemon_page_scan_ns / 8
        else cfg.daemon_page_scan_ns
      in
      sys_delay t (per_page * Int.max 1 !run);
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
    chaos_stall t `Daemon ~name:"daemon";
    if Obs.on t.obs then
      Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.kernel_stream
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
   frames are disassociated (owner -1, not on the list), so they sit in the
   same "unowned in-flight" class as frames being filled by a fault and the
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
        match Free_list.pop_head t.free with
        | Some f ->
            disassociate t f;
            grabbed := f :: !grabbed;
            incr n
        | None -> exhausted := true
      done;
      Semaphore.release t.memory_lock;
      if !n > 0 then begin
        Chaos.note_pressure t.chaos ~pages:!n;
        if Obs.on t.obs then
          Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.chaos_stream
            (Trace.Chaos_pressure { pages = !n; hold });
        Engine.delay ~cat:Account.Sleep hold;
        Semaphore.acquire t.memory_lock;
        List.iter (fun f -> Free_list.push_tail t.free f) !grabbed;
        Condition.broadcast t.free_cond;
        Semaphore.release t.memory_lock;
        if Obs.on t.obs then
          Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.chaos_stream
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
  let frames = Array.init cfg.total_frames Frame.make in
  let free = Free_list.create frames in
  Array.iter (fun f -> Free_list.push_tail free f) frames;
  let daemon_tick = Engine.queue () in
  let t =
    {
      config = cfg;
      engine;
      swap;
      tiers = None;
      frames;
      free;
      free_cond = Condition.create ~name:"free-memory" ();
      memory_lock = Semaphore.create ~name:"memory-lock" 1;
      cpus = Semaphore.create ~name:"cpus" cfg.num_cpus;
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
  let ok_free_count =
    let n = ref 0 in
    Array.iter (fun (f : Frame.t) -> if f.on_free_list then incr n) t.frames;
    !n = Free_list.length t.free
  in
  let ok_frame_pte =
    Array.for_all
      (fun (f : Frame.t) ->
        if f.owner < 0 then true
        else
          match space t f.owner with
          | None -> false
          | Some asp -> (
              As.mapped asp ~vpn:f.vpn
              &&
              match As.get_pte asp ~vpn:f.vpn with
              | As.Resident i | As.On_free_list i -> i = f.idx
              | _ -> false))
      t.frames
  in
  let spaces = Array.sub t.spaces 0 t.next_pid in
  let ok_rss =
    Array.for_all (fun asp -> As.resident_pages asp = asp.As.rss) spaces
  in
  (* Frame conservation: every frame falls into exactly one of four
     classes — free, resident, writeback-in-flight (owned, PTE marked for
     rescue, waiting for its write to finish) or unowned-in-flight (popped
     by an allocator or the chaos phantom, not yet installed) — and the
     class populations sum back to the frame count.  A frame that fits no
     class (e.g. owned but pointing at someone else's PTE) is a leak. *)
  let free_ct = ref 0
  and resident_ct = ref 0
  and inflight_ct = ref 0
  and unclassified = ref 0 in
  Array.iter
    (fun (f : Frame.t) ->
      if f.on_free_list then incr free_ct
      else if f.owner < 0 then incr inflight_ct
      else
        let pte =
          match space t f.owner with
          | None -> None
          | Some asp ->
              if As.mapped asp ~vpn:f.vpn then Some (As.get_pte asp ~vpn:f.vpn)
              else None
        in
        match pte with
        | Some (As.Resident i) when i = f.idx -> incr resident_ct
        | Some (As.On_free_list i) when i = f.idx && f.freed_by <> None ->
            incr inflight_ct
        | _ -> incr unclassified)
    t.frames;
  let total_rss = Array.fold_left (fun acc asp -> acc + asp.As.rss) 0 spaces in
  let ok_conservation =
    !unclassified = 0
    && !free_ct + !resident_ct + !inflight_ct = Array.length t.frames
    && !resident_ct = total_rss
    && !free_ct = Free_list.length t.free
  in
  (* Free-list structure: every linked frame is flagged, no duplicates. *)
  let ok_free_membership =
    let seen = Array.make (Array.length t.frames) false in
    let ok = ref true in
    Free_list.iter t.free (fun f ->
        if seen.(f.Frame.idx) || not f.Frame.on_free_list then ok := false;
        seen.(f.Frame.idx) <- true);
    !ok
  in
  (* No page both on the free list and mapped without rescue marking: a
     listed frame still owned by a process must be reachable only through
     an [On_free_list] PTE (the rescue marking); a [Resident] PTE pointing
     at a listed frame would let the owner use memory the allocator is
     about to hand to someone else. *)
  let ok_rescue_marking =
    Array.for_all
      (fun (f : Frame.t) ->
        (not f.on_free_list) || f.owner < 0
        ||
        match space t f.owner with
        | None -> false
        | Some asp -> (
            As.mapped asp ~vpn:f.vpn
            &&
            match As.get_pte asp ~vpn:f.vpn with
            | As.On_free_list i -> i = f.idx
            | _ -> false))
      t.frames
  in
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
    ("free-list count matches frame flags", ok_free_count);
    ("owned frames agree with PTEs", ok_frame_pte);
    ("rss counters match page tables", ok_rss);
    ("frame conservation: free + resident + in-flight = total", ok_conservation);
    ("free-list membership is consistent and duplicate-free", ok_free_membership);
    ("listed frames are mapped only via rescue marking", ok_rescue_marking);
  ]
  @ tier_checks

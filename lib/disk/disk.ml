open Memhog_sim

type params = {
  seek_ns : Time_ns.t;
  rotation_ns : Time_ns.t;
  transfer_ns_per_kb : Time_ns.t;
  overhead_ns : Time_ns.t;
  near_skip_ns : Time_ns.t;
  near_skip_span : int;
  request_timeout_ns : Time_ns.t;
}

(* Seagate Cheetah 4LP: ~7.7 ms average seek, 10,033 RPM (~3 ms average
   rotational latency), ~15 MB/s sustained media rate (~65 us per KB). *)
let cheetah_4lp =
  {
    seek_ns = Time_ns.us 7_700;
    rotation_ns = Time_ns.us 2_990;
    transfer_ns_per_kb = Time_ns.us 65;
    overhead_ns = Time_ns.us 300;
    (* short forward skips stay in the cylinder neighbourhood: roughly a
       track-to-track seek plus half a rotation *)
    near_skip_ns = Time_ns.us 2_400;
    near_skip_span = 64;
    (* SCSI-driver style deadline: a request still unserved after this long
       (queueing + retries + backoff included) counts as timed out *)
    request_timeout_ns = Time_ns.ms 100;
  }

type t = {
  id : int;
  params : params;
  (* The arm is a two-class queue, not a plain FIFO: demand reads (a
     process is blocked right now) are served before queued background
     requests (prefetches, write-behind).  Without this, one process's
     deep prefetch batches starve everyone else's demand misses. *)
  mutable arm_busy : bool;
  demand_q : Engine.queue;
  background_q : Engine.queue;
  bus : Semaphore.t option;
  chaos : Chaos.t;
  obs : Obs.t;
  mutable last_block : int;
  mutable reads : int;
  mutable writes : int;
  mutable busy : int;
  mutable seq_hits : int;
  mutable near_hits : int;
  mutable faults : int;
  mutable retries : int;
  mutable backoff_ns : int;
  mutable timeouts : int;
  mutable demand_bypasses : int;
}

let create ?(params = cheetah_4lp) ?bus ?(chaos = Chaos.none)
    ?(obs = Obs.null) ~id () =
  {
    id;
    params;
    arm_busy = false;
    demand_q = Engine.queue ();
    background_q = Engine.queue ();
    bus;
    chaos;
    obs;
    last_block = min_int;
    reads = 0;
    writes = 0;
    busy = 0;
    seq_hits = 0;
    near_hits = 0;
    faults = 0;
    retries = 0;
    backoff_ns = 0;
    timeouts = 0;
    demand_bypasses = 0;
  }

let id t = t.id

let acquire_arm ~cat t ~background =
  (* The arm is never free while requests queue (release hands off
     directly), so the contended branch is the only place a demand request
     can overtake queued background work. *)
  if not t.arm_busy then t.arm_busy <- true
  else begin
    let bypassed = (not background) && Engine.waiting t.background_q > 0 in
    if bypassed then t.demand_bypasses <- t.demand_bypasses + 1;
    let waited =
      Engine.wait ~cat (if background then t.background_q else t.demand_q)
    in
    let rq = Obs.reqtrace t.obs in
    if (not background) && Reqtrace.enabled rq then
      Reqtrace.note_disk_queue rq ~pid:(Engine.pid (Engine.self ()))
        ~start:(Engine.now () - waited) ~ns:waited ~bypassed
  end

(* Direct handoff: the arm stays busy and ownership moves to the waiter.
   Demand waiters always drain first. *)
let release_arm t =
  if not (Engine.wake_one t.demand_q || Engine.wake_one t.background_q) then
    t.arm_busy <- false

(* A request's service is positioning, on the arm alone, then the media
   transfer, which additionally occupies the adapter bus. *)
let positioning_ns t ~block ~is_write =
  let p = t.params in
  if is_write then
    (* Write-behind: the drive cache absorbs writes at streaming cost and
       commits them opportunistically, so writes neither pay positioning
       nor disturb the read head. *)
    p.overhead_ns
  else begin
    let delta = block - t.last_block in
    if delta = 1 then begin
      t.seq_hits <- t.seq_hits + 1;
      p.overhead_ns
    end
    else if delta > 1 && delta <= p.near_skip_span then begin
      t.near_hits <- t.near_hits + 1;
      p.overhead_ns + p.near_skip_ns
    end
    else p.overhead_ns + p.seek_ns + p.rotation_ns
  end

let transfer_ns t ~bytes = t.params.transfer_ns_per_kb * ((bytes + 1023) / 1024)

let scale_ns f ns = if f = 1.0 then ns else int_of_float (f *. float_of_int ns)

(* Injected transient failures: each failed attempt pays command overhead
   plus exponential backoff while holding the arm (the request is not done),
   then the attempt after the planned failures succeeds.  A failed attempt
   must NOT advance sequentiality state — the head's position is unknown
   after an error, so [last_block] is invalidated and the successful retry
   pays full positioning rather than spuriously earning the sequential or
   near-skip discount. *)
let inject_failures ~cat t ~block ~is_write =
  match Chaos.disk_fault t.chaos ~now:(Engine.now ()) with
  | None -> ()
  | Some (k, backoff_base) ->
      t.faults <- t.faults + 1;
      for i = 1 to k do
        t.busy <- t.busy + t.params.overhead_ns;
        Engine.delay ~cat t.params.overhead_ns;
        if Obs.on t.obs then
          Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.chaos_stream
            (Trace.Chaos_disk_fault { disk = t.id; block; attempt = i });
        let b =
          Chaos.backoff_delay ~base:backoff_base ~cap:(Time_ns.sec 10)
            ~attempt:i
        in
        Chaos.note_disk_retry t.chaos ~backoff:b;
        t.retries <- t.retries + 1;
        t.backoff_ns <- t.backoff_ns + b;
        Engine.delay ~cat b
      done;
      if not is_write then t.last_block <- min_int

let request t ~cat ~background ~write:is_write ~block ~bytes =
  let started = Engine.now () in
  acquire_arm ~cat t ~background;
  let arm_acquired = Engine.now () in
  if not (Chaos.is_none t.chaos) then
    inject_failures ~cat t ~block ~is_write;
  let slow =
    if Chaos.is_none t.chaos then 1.0
    else Chaos.disk_slow_factor t.chaos ~now:(Engine.now ())
  in
  let positioning = scale_ns slow (positioning_ns t ~block ~is_write)
  and transfer = scale_ns slow (transfer_ns t ~bytes) in
  if not is_write then t.last_block <- block;
  if is_write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
  t.busy <- t.busy + positioning + transfer;
  Engine.delay ~cat positioning;
  (match t.bus with
  | Some bus ->
      Semaphore.acquire ~cat bus;
      Engine.delay ~cat transfer;
      Semaphore.release bus
  | None -> Engine.delay ~cat transfer);
  release_arm t;
  let elapsed = Engine.now () - started in
  if elapsed > t.params.request_timeout_ns then t.timeouts <- t.timeouts + 1;
  let rq = Obs.reqtrace t.obs in
  if (not background) && Reqtrace.enabled rq then
    Reqtrace.note_disk_service rq ~pid:(Engine.pid (Engine.self ()))
      ~start:arm_acquired
      ~ns:(Engine.now () - arm_acquired);
  (* One completion event per request, spanning queueing + positioning +
     transfer (+ injected retries); the Chrome exporter links directive →
     disk request → fault chains through these. *)
  if Obs.on t.obs then
    Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.disk_stream
      (Trace.Disk_io { disk = t.id; block; write = is_write; ns = elapsed })

let read ?(cat = Account.Io_stall) ?(background = false) t ~block ~bytes =
  request t ~cat ~background ~write:false ~block ~bytes

let write ?(cat = Account.Io_stall) ?(background = false) t ~block ~bytes =
  request t ~cat ~background ~write:true ~block ~bytes

let reads t = t.reads
let writes t = t.writes
let busy_time t = t.busy
let sequential_hits t = t.seq_hits
let near_hits t = t.near_hits
let faults_injected t = t.faults
let retry_attempts t = t.retries
let backoff_time t = t.backoff_ns
let timeouts t = t.timeouts
let demand_bypasses t = t.demand_bypasses

let queue_depth t =
  Engine.waiting t.demand_q + Engine.waiting t.background_q
  + if t.arm_busy then 1 else 0

open Memhog_sim
module Os = Memhog_vm.Os
module As = Memhog_vm.Address_space
module Runtime = Memhog_runtime.Runtime

type cfg = {
  sv_nkeys : int;
  sv_theta : float;
  sv_index_bytes : int;
  sv_values_bytes : int;
  sv_rate_rps : float;
  sv_duration : Time_ns.t;
  sv_slo : Time_ns.t;
  sv_seed : int;
  sv_mark : Time_ns.t option;
}

(* Completed requests skipped before recording, and each request's
   compute cost. *)
let warmup = 32
let work_ns = Time_ns.us 200

type request = Req of { arrival : Time_ns.t; key : int } | Stop

type t = {
  os : Os.t;
  asp : As.t;
  rt : Runtime.t;
  reqtrace : Reqtrace.t;
  index_seg : As.segment;
  values_seg : As.segment;
  cfg : cfg;
  zipf : Rng.zipf;
  key_rng : Rng.t;
  arrival_rng : Rng.t;
  queue : request Mailbox.t;
  hist : Histogram.t;
  page_bytes : int;
  mutable arrived : int;
  mutable completed : int;
  mutable slo_ok : int;
  mutable post_recorded : int;
  mutable post_slo_ok : int;
  mutable window_start : Time_ns.t;
  mutable max_queue : int;
  mutable done_ : bool;
  mutable proc : Engine.proc option;
}

let create ~os ~cfg () =
  if not (cfg.sv_rate_rps > 0.0) then
    invalid_arg "Server.create: offered rate must be positive";
  let asp = Os.new_process os ~name:"kvserve" in
  let index_seg =
    Os.map_segment os asp ~name:"kv-index" ~bytes:cfg.sv_index_bytes
      ~on_swap:true
  in
  let values_seg =
    Os.map_segment os asp ~name:"kv-values" ~bytes:cfg.sv_values_bytes
      ~on_swap:true
  in
  (* The runtime layer is used for its asynchronous prefetch path only; the
     indirect values array is never released (the compiler cannot reason
     about data-dependent reuse), which is exactly the paper's worst case. *)
  let rt = Runtime.create ~os ~asp ~policy:Runtime.Aggressive () in
  let base = Rng.create ~seed:cfg.sv_seed in
  let arrival_rng = Rng.split base in
  let key_rng = Rng.split base in
  {
    os;
    asp;
    rt;
    reqtrace = Obs.reqtrace (Os.obs os);
    index_seg;
    values_seg;
    cfg;
    zipf = Rng.zipf_create ~n:cfg.sv_nkeys ~theta:cfg.sv_theta;
    key_rng;
    arrival_rng;
    queue = Mailbox.create ~name:"kv-requests" ();
    hist = Histogram.create ();
    page_bytes = (Os.config os).Memhog_vm.Config.page_bytes;
    arrived = 0;
    completed = 0;
    slo_ok = 0;
    post_recorded = 0;
    post_slo_ok = 0;
    window_start = 0;
    max_queue = 0;
    done_ = false;
    proc = None;
  }

let asp t = t.asp
let account t = Option.map Engine.account t.proc
let finished t = t.done_
let queue_depth t = Mailbox.length t.queue
let arrived t = t.arrived
let completed t = t.completed
let recorded t = Histogram.count t.hist
let slo_ok t = t.slo_ok

let index_vpn t key = t.index_seg.As.base_vpn + (key * 8 / t.page_bytes)

(* Values are laid out in popularity order — the natural layout of a
   log-structured store after compaction, where hot objects cluster.  Page
   popularity then inherits the key-level Zipf skew, giving the server a
   resident hot set whose fate under memory pressure is the experiment.
   (Hashing keys to pages would flatten page popularity and make every
   request disk-bound, measuring the disk instead of memory management.) *)
let value_vpn t key =
  let keys_per_page = Int.max 1 (t.cfg.sv_nkeys / t.values_seg.As.npages) in
  t.values_seg.As.base_vpn + (key / keys_per_page mod t.values_seg.As.npages)

(* The arrival process: open-loop Poisson.  It must never block on memory —
   a generator that faults would throttle the offered load and hide the
   very queueing delay we are measuring — so it only draws, timestamps,
   enqueues, and issues (non-blocking, helper-thread) prefetches. *)
let arrivals t () =
  t.window_start <- Engine.now ();
  let t_end = Engine.now () + t.cfg.sv_duration in
  let mean_gap_ns = 1e9 /. t.cfg.sv_rate_rps in
  let continue = ref true in
  while !continue do
    let gap =
      int_of_float (Float.round (Rng.exponential t.arrival_rng ~mean:mean_gap_ns))
    in
    Engine.delay ~cat:Account.Sleep gap;
    if Engine.now () >= t_end then continue := false
    else begin
      let key = Rng.zipf t.key_rng t.zipf in
      t.arrived <- t.arrived + 1;
      (* The run-ahead slice for a[b[i]]: prefetch both the index page and
         the (data-dependent) value page as soon as the request is visible,
         overlapping the fetches with each other and with the queue's
         residence time.  These prefetches have a deadline — the request
         is already queued behind them — so they ride the disk's demand
         class, unlike the hog's capacity-driven sweeps. *)
      Runtime.prefetch_page t.rt ~urgent:true ~vpn:(index_vpn t key);
      Runtime.prefetch_page t.rt ~urgent:true ~vpn:(value_vpn t key);
      if Reqtrace.enabled t.reqtrace then begin
        (* Stamp the issue times so the serving fiber can settle the
           prefetch race (hidden vs lost, slack) at touch time. *)
        let now = Engine.now () and owner = t.asp.As.pid in
        Reqtrace.note_prefetch_issued t.reqtrace ~owner ~vpn:(index_vpn t key)
          ~now;
        Reqtrace.note_prefetch_issued t.reqtrace ~owner ~vpn:(value_vpn t key)
          ~now
      end;
      Mailbox.send t.queue (Req { arrival = Engine.now (); key });
      let depth = Mailbox.length t.queue in
      if depth > t.max_queue then t.max_queue <- depth
    end
  done;
  Mailbox.send t.queue Stop

let touch_outcome : Os.touch_result -> Reqtrace.touch_outcome = function
  | Os.Fast -> Reqtrace.Hit
  | Os.Hard -> Reqtrace.Hard
  | Os.Soft | Os.Validated | Os.Zero_filled | Os.Rescued _ -> Reqtrace.Soft

let serve_one t ~arrival ~key =
  let rq = t.reqtrace in
  let pid = Engine.pid (Engine.self ()) and owner = t.asp.As.pid in
  Reqtrace.start rq ~pid ~key ~arrival ~now:(Engine.now ());
  let ivpn = index_vpn t key in
  let r = Os.touch t.os t.asp ~vpn:ivpn ~write:false in
  Reqtrace.note_touch rq ~pid ~owner ~kind:Reqtrace.Index ~vpn:ivpn
    ~outcome:(touch_outcome r) ~now:(Engine.now ());
  let vvpn = value_vpn t key in
  let r = Os.touch t.os t.asp ~vpn:vvpn ~write:false in
  Reqtrace.note_touch rq ~pid ~owner ~kind:Reqtrace.Value ~vpn:vvpn
    ~outcome:(touch_outcome r) ~now:(Engine.now ());
  let cpus = Os.cpus t.os in
  Semaphore.acquire cpus;
  Reqtrace.note_cpu_acquired rq ~pid ~now:(Engine.now ());
  Engine.delay ~cat:Account.User work_ns;
  Semaphore.release cpus;
  (* Response measured from arrival: queueing delay under memory pressure
     is charged to the request, not silently dropped. *)
  let response = Engine.now () - arrival in
  t.completed <- t.completed + 1;
  let recorded = t.completed > warmup in
  Reqtrace.finish rq ~pid ~commit:recorded ~now:(Engine.now ());
  if recorded then begin
    Histogram.record t.hist response;
    if response <= t.cfg.sv_slo then t.slo_ok <- t.slo_ok + 1;
    (* The post-mark tally keys on *arrival* time: a request that arrived
       after the injected fault window closed but still blew its SLO
       (e.g. queued behind the backlog the fault left) counts against
       recovery, exactly as a client would experience it. *)
    match t.cfg.sv_mark with
    | Some mark when arrival >= t.window_start + mark ->
        t.post_recorded <- t.post_recorded + 1;
        if response <= t.cfg.sv_slo then t.post_slo_ok <- t.post_slo_ok + 1
    | _ -> ()
  end

let server t ~on_done () =
  Runtime.start t.rt;
  let continue = ref true in
  while !continue do
    match Mailbox.recv t.queue with
    | Req { arrival; key } -> serve_one t ~arrival ~key
    | Stop ->
        continue := false;
        t.done_ <- true;
        on_done ()
  done

let spawn ?(on_done = fun () -> ()) t =
  let engine = Os.engine t.os in
  ignore (Engine.spawn engine ~name:"kv-arrivals" (arrivals t));
  let p = Engine.spawn engine ~name:"kv-server" (server t ~on_done) in
  t.proc <- Some p;
  p

type summary = {
  sm_offered_rps : float;
  sm_duration : Time_ns.t;
  sm_slo : Time_ns.t;
  sm_arrived : int;
  sm_completed : int;
  sm_recorded : int;
  sm_max_queue : int;
  sm_slo_ok : int;
  sm_mark : Time_ns.t option;
  sm_post_recorded : int;
  sm_post_slo_ok : int;
  sm_hist : Histogram.t;
}

let summary t =
  {
    sm_offered_rps = t.cfg.sv_rate_rps;
    sm_duration = t.cfg.sv_duration;
    sm_slo = t.cfg.sv_slo;
    sm_arrived = t.arrived;
    sm_completed = t.completed;
    sm_recorded = Histogram.count t.hist;
    sm_max_queue = t.max_queue;
    sm_slo_ok = t.slo_ok;
    sm_mark = t.cfg.sv_mark;
    sm_post_recorded = t.post_recorded;
    sm_post_slo_ok = t.post_slo_ok;
    sm_hist = t.hist;
  }

(* A run that recorded nothing attained nothing: 0.0, not a vacuous 1.0 —
   a cell whose server starved (or whose duration was shorter than its
   warmup) must not report perfect SLO attainment. *)
let slo_attainment s =
  if s.sm_recorded = 0 then 0.0
  else float_of_int s.sm_slo_ok /. float_of_int s.sm_recorded

let post_attainment s =
  if s.sm_post_recorded = 0 then 0.0
  else float_of_int s.sm_post_slo_ok /. float_of_int s.sm_post_recorded

open Memhog_sim

type params = {
  base_latency_ns : Time_ns.t;
  bandwidth_mb_s : float;
  timeout_ns : Time_ns.t;
  attempts : int;
  backoff_ns : Time_ns.t;
  backoff_cap_ns : Time_ns.t;
}

(* RDMA-class far memory: a few microseconds of fixed round trip, a fat
   link, and a deadline two orders of magnitude above the healthy RTT so
   only injected faults ever trip it. *)
let default_params =
  {
    base_latency_ns = Time_ns.us 5;
    bandwidth_mb_s = 1_000.0;
    timeout_ns = Time_ns.us 500;
    attempts = 4;
    backoff_ns = Time_ns.us 50;
    backoff_cap_ns = Time_ns.ms 2;
  }

type t = {
  params : params;
  page_bytes : int;
  engine : Engine.t;
  chaos : Chaos.t;
  obs : Obs.t;
  trace_id : int;
  stats : Backend.stats;
  (* Fluid-flow model of the shared link: a transfer occupies the wire for
     its transmission time; later requests queue behind [link_free]. *)
  mutable link_free : Time_ns.t;
}

let create ?(params = default_params) ?(chaos = Chaos.none)
    ?(obs = Obs.null) ?(trace_id = 1) ~engine ~page_bytes () =
  if params.attempts < 1 then invalid_arg "Farmem.create: attempts must be >= 1";
  if params.bandwidth_mb_s <= 0.0 then
    invalid_arg "Farmem.create: bandwidth must be positive";
  {
    params;
    page_bytes;
    engine;
    chaos;
    obs;
    trace_id;
    stats = Backend.fresh_stats ();
    link_free = 0;
  }

let stats t = t.stats

(* Suspend until either the response arrives ([response] simulated ns from
   now, [None] = black-holed) or the abort deadline fires, whichever is
   first; charge the elapsed wait to [cat].  Unlike the local disks'
   accounting-only [request_timeout_ns], the deadline here genuinely aborts
   the wait: the fiber resumes at the deadline and the caller re-issues.
   Only the first timer to fire calls the waker; the loser finds [fired]
   set. *)
let race_deadline t ~cat ~response =
  let t0 = Engine.now () in
  Engine.suspend (fun waker ->
      let fired = ref false in
      let first () =
        if not !fired then begin
          fired := true;
          waker ()
        end
      in
      (match response with
      | Some d -> Engine.wake_after t.engine d first
      | None -> ());
      Engine.wake_after t.engine t.params.timeout_ns first);
  let elapsed = Engine.now () - t0 in
  Account.add (Engine.account (Engine.self ())) cat elapsed;
  match response with Some d -> d <= elapsed | None -> false

(* One wire attempt.  Service time is fixed RTT plus transmission, both
   inflated by any active brown-out, plus drawn jitter; the link reservation
   is only committed when the response will beat the deadline — an aborted
   transfer stops occupying the wire. *)
let attempt t ~cat =
  let now = Engine.now () in
  if Chaos.net_partitioned t.chaos ~now then race_deadline t ~cat ~response:None
  else begin
    let factor = Chaos.net_latency_factor t.chaos ~now in
    let bw = t.params.bandwidth_mb_s *. Chaos.net_bandwidth_scale t.chaos ~now in
    let txn_ns = int_of_float (float_of_int t.page_bytes *. 1000.0 /. bw) in
    let jitter = Chaos.net_jitter t.chaos ~now in
    let service =
      int_of_float
        (factor *. float_of_int (t.params.base_latency_ns + txn_ns))
      + jitter
    in
    let start = Int.max now t.link_free in
    let response = start - now + service in
    if response <= t.params.timeout_ns then t.link_free <- start + txn_ns;
    race_deadline t ~cat ~response:(Some response)
  end

let rpc t ~cat ~background:_ ~page =
  let rec go i =
    if attempt t ~cat then Ok i
    else begin
      t.stats.Backend.timeouts <- t.stats.Backend.timeouts + 1;
      if Obs.on t.obs then
        Obs.emit t.obs ~time:(Engine.now ()) ~stream:Trace.tier_stream
          (Trace.Tier_timeout { page; tier = t.trace_id; attempt = i });
      if i >= t.params.attempts then Error i
      else begin
        t.stats.Backend.retries <- t.stats.Backend.retries + 1;
        Engine.delay ~cat
          (Chaos.backoff_delay ~base:t.params.backoff_ns
             ~cap:t.params.backoff_cap_ns ~attempt:i);
        go (i + 1)
      end
    end
  in
  go 1

let read_page ?(cat = Account.Io_stall) ?(background = false) t ~page =
  t.stats.Backend.reads <- t.stats.Backend.reads + 1;
  match rpc t ~cat ~background ~page with
  | Ok i -> Backend.R_ok i
  | Error i -> Backend.R_failed i

let write_page ?(cat = Account.Io_stall) ?(background = false) t ~page =
  t.stats.Backend.writes <- t.stats.Backend.writes + 1;
  match rpc t ~cat ~background ~page with
  | Ok i -> Backend.W_ok i
  | Error i ->
      t.stats.Backend.rejects <- t.stats.Backend.rejects + 1;
      Backend.W_rejected i

let as_backend t =
  {
    Backend.name = "far";
    read = (fun ~cat ~background ~site:_ ~page -> read_page ~cat ~background t ~page);
    write =
      (fun ~cat ~background ~site:_ ~page -> write_page ~cat ~background t ~page);
    stats = t.stats;
  }

(** Network-attached far-memory tier (the programmed-far-memory model).

    Microsecond-scale fixed round trip plus transmission on a shared link
    modelled as a fluid-flow channel (a transfer occupies the wire for its
    transmission time; later requests queue behind it).  Each attempt races
    a per-request deadline built from {!Memhog_sim.Engine.suspend} and two
    [wake_after] timers: if the deadline wins, the attempt is {e aborted} —
    the fiber stops waiting, the wire reservation is rolled back — and the
    request is re-issued after capped exponential backoff
    ({!Memhog_sim.Chaos.backoff_delay}).  After [attempts] aborts the
    request fails and the caller (the tier router) recovers from the
    failover copy, so no fiber ever blocks on a dead link.

    Chaos hooks: [net-partition] black-holes attempts (no response ever
    arrives), [net-brownout] inflates latency and derates the link rate,
    [net-jitter] adds a drawn delay per round trip.  All draws come from
    the plan's per-rule streams, so behaviour is byte-deterministic. *)

open Memhog_sim

type params = {
  base_latency_ns : Time_ns.t;  (** fixed round-trip component *)
  bandwidth_mb_s : float;  (** nominal link rate, MB/s *)
  timeout_ns : Time_ns.t;  (** per-attempt abort deadline *)
  attempts : int;  (** total attempts including the first *)
  backoff_ns : Time_ns.t;  (** re-issue backoff base *)
  backoff_cap_ns : Time_ns.t;  (** re-issue backoff saturation *)
}

val default_params : params
(** 5us RTT, 1000 MB/s, 500us deadline, 4 attempts, 50us base backoff
    capped at 2ms. *)

type t

val create :
  ?params:params ->
  ?chaos:Chaos.t ->
  ?obs:Obs.t ->
  ?trace_id:int ->
  engine:Engine.t ->
  page_bytes:int ->
  unit ->
  t
(** [engine] is needed for the deadline timers ([wake_after]).  Timed-out
    attempts are emitted on [obs] (default {!Obs.null}) as [Tier_timeout]
    events; [trace_id] (default 1) labels their tier. *)

val stats : t -> Backend.stats

val read_page :
  ?cat:Account.category -> ?background:bool -> t -> page:int ->
  Backend.read_result

val write_page :
  ?cat:Account.category -> ?background:bool -> t -> page:int ->
  Backend.write_result

val as_backend : t -> Backend.t
(** The tier behind the uniform {!Backend} interface (name ["far"]). *)

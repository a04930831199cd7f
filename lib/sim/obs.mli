(** The observation bus: one handle that owns a run's three observation
    sinks — the event {!Trace} ring, the page-lifecycle {!Ledger} and the
    per-request blame layer ({!Reqtrace}) — and is threaded through every
    layer that observes the simulated system.

    Every typed event goes through {!emit}, which feeds the ring and the
    ledger.  [on] is computed once, at {!create}: true when the ring or the
    ledger is enabled.  Emit sites guard event construction with it, so a
    run with both off builds no event values and the disabled path is one
    branch that allocates nothing:

    {[
      if Obs.on obs then
        Obs.emit obs ~time:(Engine.now ()) ~stream:pid
          (Trace.Hard_fault { vpn })
    ]}

    The blame layer is not on the event stream: its callers (the fault
    path, the disks, the server) call {!Reqtrace} directly through
    {!reqtrace}, guarded by {!Reqtrace.enabled}. *)

type t

val null : t
(** No sinks: {!on} is false, and {!trace} and {!reqtrace} are the
    disabled [null] values. *)

val create :
  ?trace:Trace.t -> ?ledger:Ledger.t -> ?reqtrace:Reqtrace.t -> unit -> t
(** Each sink defaults to its [null] value. *)

val on : t -> bool
(** The ring or the ledger is enabled. *)

val emit : t -> time:Time_ns.t -> stream:int -> Trace.event -> unit
(** Hand one event to the ring and then the ledger.  [stream] follows the
    {!Trace.emit} convention: the acting process's pid, or a reserved
    daemon stream. *)

val trace : t -> Trace.t
val reqtrace : t -> Reqtrace.t

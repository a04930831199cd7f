(** Deterministic discrete-event simulation engine.

    Simulated processes are OCaml 5 fibers: ordinary functions that perform
    effects ([delay], [suspend], [spawn], ...) handled by the engine.  The
    engine maintains a single event queue ordered by (timestamp, insertion
    sequence), so identical inputs always produce identical schedules.

    Typical use:
    {[
      let engine = Engine.create () in
      ignore (Engine.spawn engine ~name:"main" (fun () ->
        Engine.delay ~cat:Account.User (Time_ns.ms 3);
        ...));
      Engine.run engine
    ]}

    All of [now], [delay], [suspend], [spawn], [self] and [stop] (the
    unprefixed process operations) require a running engine on the current
    domain; calling them outside [run] raises [Not_in_simulation], as do
    [delay]/[suspend]/[self] when no process fiber is executing (e.g. from
    a [wake_after] timer thunk).  [now], [stop] and [spawn_child] only
    need the engine, so they also work from timer thunks and wakers. *)

type t

type proc_state = Ready | Blocked | Finished | Crashed of exn

type proc = {
  pid : int;
  name : string;
  account : Account.t;
  mutable state : proc_state;
  mutable wakeups : int;  (** diagnostic: how many times resumed *)
}

exception Not_in_simulation
exception Stopped

val create : ?max_time:Time_ns.t -> unit -> t
(** [max_time] is a safety cap on simulated time (default: 10^7 seconds);
    the run halts when the clock would pass it. *)

val now_of : t -> Time_ns.t
(** Current simulated time (readable from outside processes too). *)

val events_executed : t -> int
(** Total events executed so far: those popped from the queue plus the
    delays that finished inline (see {!delay}), so the count is the same as
    if every delay had been queued.  Deterministic: a fixed setup yields the
    same count on every run, so it doubles as a work counter for throughput
    benchmarks. *)

val spawn : t -> name:string -> (unit -> unit) -> proc
(** Register a new process; it starts at the current simulated time once
    [run] (re)gains control.  Callable from inside or outside processes. *)

val run : t -> unit
(** Run until the event queue drains, [stop] is called, or [max_time] is
    reached.  Processes that crashed are reported via [crashes]. *)

val stopped : t -> bool
val crashes : t -> (string * exn) list
val live_count : t -> int
(** Number of processes spawned and not yet finished. *)

(** {1 Operations available inside processes} *)

type waker = unit -> unit
(** Calling a waker schedules the suspended process to resume at the
    simulated time of the call.  Calling it more than once is harmless. *)

val wake_after : t -> Time_ns.t -> waker -> unit
(** Schedule [waker] to fire after the given simulated delay.  Combined with
    [suspend] this builds interruptible sleeps: suspend, then hand the waker
    both to [wake_after] and to whoever may want to cut the sleep short.
    Callable from inside or outside processes. *)

val now : unit -> Time_ns.t
val self : unit -> proc

val delay : cat:Account.category -> Time_ns.t -> unit
(** Advance this process's clock by the given duration, charging the time to
    [cat] in its account.

    When the queue would resume the caller next anyway, the delay finishes
    inline, without an effect or a heap push: the caller is the running
    fiber, no stop has been requested, [now + d <= max_time], and every
    queued event is strictly later than [now + d].  It charges the account,
    advances the clock and counts one event, exactly as the queued path
    does, so schedules, accounts and {!events_executed} are the same either
    way.  Otherwise the fiber suspends until its wake-up event is popped.
    A negative duration raises [Invalid_argument] inside the fiber; outside
    a running fiber (a [suspend] callback, a [wake_after] thunk) [delay]
    raises [Not_in_simulation]. *)

val suspend : (waker -> unit) -> unit
(** Block until the waker passed to the callback is invoked.  The callback
    runs immediately (in the suspending process's context) and must arrange
    for some other process to call the waker later.  No time category is
    charged here; blocking primitives account the elapsed wait themselves. *)

val spawn_child : name:string -> (unit -> unit) -> proc
(** [spawn] from inside a process. *)

val stop : unit -> unit
(** Request the whole simulation to halt after the current event. *)

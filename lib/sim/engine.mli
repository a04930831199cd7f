(** Deterministic discrete-event simulation engine.

    Simulated processes are OCaml 5 fibers: ordinary functions that perform
    effects ([delay], [wait], [suspend], ...) handled by the engine.  Events
    run in (timestamp, scheduling order), so identical inputs always produce
    identical schedules.  Events due later wait in a {!Heap}; an event
    scheduled for the current instant (a wake, a zero-length delay, a spawn)
    joins a FIFO ring that runs once the heap holds nothing more for this
    instant, since every heap entry for it was scheduled earlier.

    Typical use:
    {[
      let engine = Engine.create () in
      ignore (Engine.spawn engine ~name:"main" (fun () ->
        Engine.delay ~cat:Account.User (Time_ns.ms 3);
        ...));
      Engine.run engine
    ]}

    All of [now], [delay], [wait], [suspend], [spawn_child], [self] and
    [stop] (the unprefixed process operations) require a running engine on
    the current domain; calling them outside [run] raises
    [Not_in_simulation], as do [delay]/[wait]/[suspend]/[self] when no
    process fiber is executing (e.g. from a [wake_after] timer thunk).
    [now], [stop] and [spawn_child] only need the engine, so they also work
    from timer thunks and wakers. *)

type t

type proc_state =
  | Ready  (** running, or spawned and not yet started *)
  | Blocked  (** in {!wait} or {!suspend}, until woken *)
  | Resuming  (** its resume is queued: a queued {!delay}, or woken *)
  | Finished
  | Crashed  (** raised; the exception is in {!crashes} *)

type proc
(** A simulated process.  It blocks as itself: its pending continuation
    and its one resume event live in this record, which only the engine
    sees, so a queued delay or a wake allocates nothing but the runtime's
    continuation. *)

val pid : proc -> int
val name : proc -> string
val account : proc -> Account.t
val state : proc -> proc_state

exception Not_in_simulation

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
    reached.  Processes that crashed are reported via [crashes].  A stop
    leaves blocked and woken processes where they are: they never resume,
    and a woken process is not charged its wait. *)

val stopped : t -> bool
val crashes : t -> (string * exn) list

(** {1 Operations available inside processes} *)

val now : unit -> Time_ns.t
val self : unit -> proc

val delay : cat:Account.category -> Time_ns.t -> unit
(** Advance this process's clock by the given duration, charging the time to
    [cat] in its account.

    When the queue would resume the caller next anyway, the delay finishes
    inline, without an effect or a queue push: the caller is the running
    fiber, no stop has been requested, [now + d <= max_time], nothing waits
    in the ring for the current instant, and every queued event is strictly
    later than [now + d].  It charges the account, advances the clock and
    counts one event, exactly as the queued path does, so schedules,
    accounts and {!events_executed} are the same either way.  Otherwise the
    fiber suspends until its wake-up event runs.  A negative duration raises
    [Invalid_argument] inside the fiber; outside a running fiber (a
    [suspend] callback, a [wake_after] thunk) [delay] raises
    [Not_in_simulation]. *)

val spawn_child : name:string -> (unit -> unit) -> proc
(** [spawn] from inside a process. *)

val stop : unit -> unit
(** Request the whole simulation to halt after the current event. *)

(** {1 Wait queues}

    Which wait to use when:
    - for a known duration, {!delay};
    - until another process says so, a wait queue.  Prefer the primitive
      that names the condition: a {!Semaphore} for a counted resource
      handed over in FIFO order, a {!Condition} for "state changed"
      notices, an {!Ivar} for a result computed once, a {!Mailbox} for
      messages.  Use a bare queue where none fits: a disk arm's two
      request classes, an idle helper thread's slot, the releaser daemon's
      wait for requests, the paging daemon's tick (ended by its {!timer});
    - until the first of several events, {!suspend} with a {!waker}.

    A process waits as itself, on at most one queue: waiting and waking
    allocate nothing beyond the runtime's continuation. *)

type queue
(** A FIFO of blocked processes. *)

val queue : unit -> queue

val wait : cat:Account.category -> queue -> Time_ns.t
(** Block the calling process at the tail of the queue until a
    [wake_one]/[wake_all] reaches it.  When it resumes, the time it waited
    is charged to [cat] in its account and returned. *)

val wake_one : queue -> bool
(** Wake the longest-waiting process, which resumes at the current instant
    after every event already due then; [false] if none waits.  Callable
    from anywhere, inside or outside processes. *)

val wake_all : queue -> unit
(** Wake every waiting process, longest-waiting first.  With none waiting
    it does nothing and allocates nothing. *)

val waiting : queue -> int
(** Number of processes blocked on the queue. *)

(** {1 Wakers}

    For a wait that any of several events may end (a response or a
    deadline, whichever comes first): suspend, then hand the waker to each
    of them, and make sure only the first calls it. *)

type waker = unit -> unit
(** Calling a waker schedules the suspended process to resume at the
    simulated time of the call.  Call it at most once: a call when the
    process is no longer blocked in the [suspend] that made the waker
    (woken already, running again, or blocked elsewhere) raises
    [Invalid_argument] naming the process. *)

val wake_after : t -> Time_ns.t -> waker -> unit
(** Schedule [waker] to fire after the given simulated delay.  Callable from
    inside or outside processes. *)

type timer
(** A thunk whose event is built once, for a timer armed again and again
    (the paging daemon's tick): arming it allocates nothing. *)

val timer : t -> (unit -> unit) -> timer

val arm : timer -> Time_ns.t -> unit
(** Run the timer's thunk after the given simulated delay, as
    {!wake_after} would.  A timer may be armed again before it fires; each
    arming runs the thunk once. *)

val suspend : (waker -> unit) -> unit
(** Block until the waker passed to the callback is invoked.  The callback
    runs immediately (in the suspending process's context) and must arrange
    for some other process to call the waker later.  No time category is
    charged here; the caller accounts the elapsed wait itself. *)

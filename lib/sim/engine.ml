open Effect
open Effect.Deep

type proc_state = Ready | Blocked | Resuming | Finished | Crashed

(* A process waits as itself: its pending continuation sits in its record,
   and its one resume event is allocated with it, so queueing a delay or a
   wake stores the continuation and pushes that event.  The event queue
   stores a flat variant; thunks remain for spawns and [wake_after]
   timers. *)
type proc = {
  pid : int;
  name : string;
  account : Account.t;
  engine : t;
  mutable state : proc_state;
  mutable k : (unit, unit) continuation;
      (* what its resume continues: set when it blocks or queues a delay *)
  mutable next : proc;  (* the next waiter on its wait queue *)
  resume : event;  (* [Ev_resume] of this process *)
}

and event = Ev_thunk of (unit -> unit) | Ev_resume of proc

and t = {
  events : event Heap.t;  (* events due after [now] (or at [now], when
                             scheduled before the clock reached it) *)
  mutable ready : event array;
      (* events due at [now] and scheduled at [now]: a FIFO ring whose
         capacity is a power of two *)
  mutable ready_head : int;
  mutable ready_len : int;
  mutable now : int;
  mutable seq : int;
  mutable next_pid : int;
  mutable stop_requested : bool;
  max_time : int;
  mutable crash_list : (string * exn) list;
  mutable executed : int;
  mutable current : proc;
      (* the process whose fiber is executing (dummy between fibers) *)
  (* Scratch slots for passing effect payloads without allocating an
     effect-constructor block per perform: [delay]/[wait]/[suspend] store
     their arguments here immediately before performing the matching
     constant effect, and the handler (which runs synchronously on the same
     domain) reads them back.  Nothing can interleave between the store and
     the perform. *)
  mutable sc_cat : Account.category;
  mutable sc_ns : int;
  mutable sc_queue : queue;
  mutable sc_register : waker -> unit;
}

(* A FIFO of blocked processes, linked through their [next] fields (a
   process waits on at most one queue); [dummy_proc] ends the list. *)
and queue = { mutable head : proc; mutable tail : proc; mutable length : int }

and waker = unit -> unit

exception Not_in_simulation

(* Payload-free effects: arguments travel through the scratch slots above.
   The handler closures installed by [start_fiber] know both the engine and
   the current process, so the effects carry no engine reference either. *)
type _ Effect.t += E_delay : unit Effect.t
type _ Effect.t += E_wait : unit Effect.t
type _ Effect.t += E_suspend : unit Effect.t
type _ Effect.t += E_park : unit Effect.t

let dummy_fun () = ()
let null_register (_ : waker) = ()
let no_event = Ev_thunk dummy_fun

(* The pending continuation of a process that has none: a fiber parked here
   once and never resumed. *)
let no_k =
  let parked : (unit, unit) continuation option ref = ref None in
  match_with perform E_park
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | E_park -> Some (fun (k : (a, unit) continuation) -> parked := Some k)
          | _ -> None);
    };
  Option.get !parked

let rec dummy_proc =
  {
    pid = -1;
    name = "<no process>";
    account = Account.create ();
    engine = dummy_engine;
    state = Finished;
    k = no_k;
    next = dummy_proc;
    resume = Ev_resume dummy_proc;
  }

and no_queue = { head = dummy_proc; tail = dummy_proc; length = 0 }

and dummy_engine =
  {
    events = Heap.create ~dummy:no_event ();
    ready = [||];
    ready_head = 0;
    ready_len = 0;
    now = 0;
    seq = 0;
    next_pid = 0;
    stop_requested = true;
    max_time = 0;
    crash_list = [];
    executed = 0;
    current = dummy_proc;
    sc_cat = Account.User;
    sc_ns = 0;
    sc_queue = no_queue;
    sc_register = null_register;
  }

let create ?(max_time = Time_ns.sec 10_000_000) () =
  {
    events = Heap.create ~dummy:no_event ();
    ready = Array.make 16 no_event;
    ready_head = 0;
    ready_len = 0;
    now = 0;
    seq = 0;
    next_pid = 0;
    stop_requested = false;
    max_time;
    crash_list = [];
    executed = 0;
    current = dummy_proc;
    sc_cat = Account.User;
    sc_ns = 0;
    sc_queue = no_queue;
    sc_register = null_register;
  }

(* The engine currently executing on this domain, so that [now]/[self]/
   [delay]/... reach it without threading a handle through every call:
   [run] installs the engine in the slot and restores the previous value on
   exit (nested [run]s on one domain save/restore correctly). *)
let dls_current : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let[@inline] cur () =
  match !(Domain.DLS.get dls_current) with
  | Some t -> t
  | None -> raise Not_in_simulation

let now_of t = t.now
let events_executed t = t.executed
let stopped t = t.stop_requested
let crashes t = List.rev t.crash_list
let pid p = p.pid
let name p = p.name
let account p = p.account
let state p = p.state

let push_ready t ev =
  let cap = Array.length t.ready in
  if t.ready_len = cap then begin
    let ready = Array.make (2 * cap) no_event in
    let first = cap - t.ready_head in
    Array.blit t.ready t.ready_head ready 0 first;
    Array.blit t.ready 0 ready first (cap - first);
    t.ready <- ready;
    t.ready_head <- 0
  end;
  t.ready.((t.ready_head + t.ready_len) land (Array.length t.ready - 1)) <- ev;
  t.ready_len <- t.ready_len + 1

let pop_ready t =
  let i = t.ready_head in
  let ev = t.ready.(i) in
  t.ready.(i) <- no_event;
  t.ready_head <- (i + 1) land (Array.length t.ready - 1);
  t.ready_len <- t.ready_len - 1;
  ev

(* An event due at [now] goes to the ready ring.  The heap's entries for
   [now] were all scheduled before the clock reached [now], so they hold
   smaller sequence numbers and run first; the ring keeps the rest in
   scheduling order.  Together they run in (time, sequence) order. *)
let schedule t time ev =
  if time > t.now then begin
    t.seq <- t.seq + 1;
    Heap.add t.events ~key:time ~seq:t.seq ev
  end
  else if time = t.now then push_ready t ev
  else invalid_arg "Engine.schedule: time in the past"

let not_blocked p =
  invalid_arg
    (Printf.sprintf "Engine: woke %s (pid %d), which is not blocked" p.name p.pid)

(* Every wake goes through here: [p] resumes at the current instant. *)
let ready p =
  if p.state != Blocked then not_blocked p;
  p.state <- Resuming;
  push_ready p.engine p.resume

let rec start_fiber t proc f =
  proc.state <- Ready;
  t.current <- proc;
  let retc () = proc.state <- Finished in
  let exnc e =
    proc.state <- Crashed;
    t.crash_list <- (proc.name, e) :: t.crash_list
  in
  (* Handler closures are allocated once per fiber, not once per performed
     effect: the [effc] branches below return these preexisting options. *)
  let h_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        let d = t.sc_ns in
        if d < 0 then discontinue k (Invalid_argument "Engine.delay: negative")
        else begin
          Account.add proc.account t.sc_cat d;
          proc.k <- k;
          proc.state <- Resuming;
          schedule t (t.now + d) proc.resume
        end)
  in
  let h_wait =
    Some
      (fun (k : (unit, unit) continuation) ->
        let q = t.sc_queue in
        proc.k <- k;
        proc.state <- Blocked;
        if q.head == dummy_proc then q.head <- proc else q.tail.next <- proc;
        q.tail <- proc;
        q.length <- q.length + 1)
  in
  let h_suspend =
    Some
      (fun (k : (unit, unit) continuation) ->
        let register = t.sc_register in
        t.sc_register <- null_register;
        proc.k <- k;
        proc.state <- Blocked;
        (* [proc.k == k] while the process is still in this suspend: a
           later call finds it resumed, or blocked in another wait. *)
        register (fun () -> if proc.k == k then ready proc else not_blocked proc))
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | E_delay -> h_delay
    | E_wait -> h_wait
    | E_suspend -> h_suspend
    | _ -> None
  in
  match_with f () { retc; exnc; effc }

and spawn : t -> name:string -> (unit -> unit) -> proc =
 fun t ~name f ->
  let rec proc =
    {
      pid = t.next_pid;
      name;
      account = Account.create ();
      engine = t;
      state = Ready;
      k = no_k;
      next = dummy_proc;
      resume = Ev_resume proc;
    }
  in
  t.next_pid <- t.next_pid + 1;
  schedule t t.now (Ev_thunk (fun () -> start_fiber t proc f));
  proc

let wake_after t d waker =
  if d < 0 then invalid_arg "Engine.wake_after: negative";
  schedule t (t.now + d) (Ev_thunk waker)

(* A timer is its event, built once: arming it queues that event. *)
type timer = { tm_engine : t; tm_event : event }

let timer t f = { tm_engine = t; tm_event = Ev_thunk f }

let arm tm d =
  if d < 0 then invalid_arg "Engine.arm: negative";
  let t = tm.tm_engine in
  schedule t (t.now + d) tm.tm_event

let dispatch t = function
  | Ev_thunk f ->
      t.current <- dummy_proc;
      f ()
  | Ev_resume proc ->
      t.current <- proc;
      proc.state <- Ready;
      continue proc.k ()

let run t =
  let slot = Domain.DLS.get dls_current in
  let saved = !slot in
  slot := Some t;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      let events = t.events in
      let rec loop () =
        if t.stop_requested then ()
        else if
          t.ready_len > 0
          && (Heap.is_empty events || Heap.min_key events > t.now)
        then begin
          if t.now > t.max_time then t.stop_requested <- true
          else begin
            t.executed <- t.executed + 1;
            dispatch t (pop_ready t);
            loop ()
          end
        end
        else if Heap.is_empty events then ()
        else begin
          let time = Heap.min_key events in
          if time > t.max_time then t.stop_requested <- true
          else begin
            t.now <- time;
            t.executed <- t.executed + 1;
            dispatch t (Heap.pop events);
            loop ()
          end
        end
      in
      loop ())

(* Process-side operations.  [now]/[self]/[stop]/[spawn_child] read the
   engine straight from domain-local storage — no effect round trip, no
   handler dispatch.  [wait], [suspend], and any [delay] that cannot finish
   inline, must capture the continuation, so they perform (constant,
   payload-free) effects. *)

let now () = (cur ()).now

let self () =
  let p = (cur ()).current in
  if p == dummy_proc then raise Not_in_simulation else p

(* A delay that the queue would hand straight back to its caller finishes
   inline: when the caller is the running fiber, no stop is pending, the
   wake-up is within [max_time], nothing is due at [now] in the ready ring,
   and every queued event is strictly later (an event at the same instant
   was scheduled first and would run first), the round trip through the
   handler and the heap would only resume this fiber at [now + d].  Doing
   its bookkeeping here (account, clock, executed count) leaves every
   observable of the run as it was; all other cases take the queue. *)
let delay ~cat d =
  let t = cur () in
  let p = t.current in
  if
    p.state == Ready
    && (not t.stop_requested)
    && t.ready_len = 0
    && d >= 0
    && d <= t.max_time - t.now
    && (Heap.is_empty t.events || Heap.min_key t.events > t.now + d)
  then begin
    Account.add p.account cat d;
    t.now <- t.now + d;
    t.executed <- t.executed + 1
  end
  else begin
    t.sc_cat <- cat;
    t.sc_ns <- d;
    try perform E_delay with Effect.Unhandled _ -> raise Not_in_simulation
  end

let queue () = { head = dummy_proc; tail = dummy_proc; length = 0 }
let waiting q = q.length

let wait ~cat q =
  let t = cur () in
  let p = t.current in
  let t0 = t.now in
  t.sc_queue <- q;
  (try perform E_wait with Effect.Unhandled _ -> raise Not_in_simulation);
  let waited = t.now - t0 in
  Account.add p.account cat waited;
  waited

let wake_one q =
  let p = q.head in
  if p == dummy_proc then false
  else begin
    q.head <- p.next;
    if q.head == dummy_proc then q.tail <- dummy_proc;
    q.length <- q.length - 1;
    p.next <- dummy_proc;
    ready p;
    true
  end

let rec wake_list p =
  if p != dummy_proc then begin
    let next = p.next in
    p.next <- dummy_proc;
    ready p;
    wake_list next
  end

let wake_all q =
  let p = q.head in
  if p != dummy_proc then begin
    q.head <- dummy_proc;
    q.tail <- dummy_proc;
    q.length <- 0;
    wake_list p
  end

let suspend register =
  let t = cur () in
  t.sc_register <- register;
  try perform E_suspend with Effect.Unhandled _ -> raise Not_in_simulation

let spawn_child ~name f = spawn (cur ()) ~name f
let stop () = (cur ()).stop_requested <- true

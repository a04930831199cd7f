open Effect
open Effect.Deep

type proc_state = Ready | Blocked | Finished | Crashed of exn

type proc = {
  pid : int;
  name : string;
  account : Account.t;
  mutable state : proc_state;
  mutable wakeups : int;
}

type waker = unit -> unit

(* The event queue stores a flat variant instead of a closure per event:
   a delay/suspend wake is just the process and its pending continuation
   (one 3-word block), not a fresh closure capturing engine, process and
   continuation.  Thunks remain for the rare spawn / wake_after events. *)
type event =
  | Ev_thunk of (unit -> unit)
  | Ev_resume of proc * (unit, unit) continuation

type t = {
  events : event Heap.t;
  mutable now : int;
  mutable seq : int;
  mutable next_pid : int;
  mutable stop_requested : bool;
  mutable live : int;
  max_time : int;
  mutable crash_list : (string * exn) list;
  mutable executed : int;
  mutable current : proc;
      (* the process whose fiber is executing (dummy between fibers) *)
  (* Scratch slots for passing effect payloads without allocating an
     effect-constructor block per perform: [delay]/[suspend] store their
     arguments here immediately before performing the matching constant
     effect, and the handler (which runs synchronously on the same domain)
     reads them back.  Nothing can interleave between the store and the
     perform. *)
  mutable sc_cat : Account.category;
  mutable sc_ns : int;
  mutable sc_register : waker -> unit;
}

exception Not_in_simulation
exception Stopped

(* Payload-free effects: arguments travel through the scratch slots above.
   The handler closures installed by [start_fiber] know both the engine and
   the current process, so the effects carry no engine reference either. *)
type _ Effect.t += E_delay : unit Effect.t
type _ Effect.t += E_suspend : unit Effect.t

let dummy_fun () = ()
let null_register (_ : waker) = ()

let dummy_proc =
  {
    pid = -1;
    name = "<no process>";
    account = Account.create ();
    state = Finished;
    wakeups = 0;
  }

let create ?(max_time = Time_ns.sec 10_000_000) () =
  {
    events = Heap.create ~dummy:(Ev_thunk dummy_fun) ();
    now = 0;
    seq = 0;
    next_pid = 0;
    stop_requested = false;
    live = 0;
    max_time;
    crash_list = [];
    executed = 0;
    current = dummy_proc;
    sc_cat = Account.User;
    sc_ns = 0;
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
let live_count t = t.live

let schedule t time ev =
  if time < t.now then invalid_arg "Engine.schedule: time in the past";
  t.seq <- t.seq + 1;
  Heap.add t.events ~key:time ~seq:t.seq ev

let rec start_fiber t proc f =
  proc.state <- Ready;
  t.current <- proc;
  let retc () =
    proc.state <- Finished;
    t.live <- t.live - 1
  in
  let exnc e =
    (match e with
    | Stopped ->
        (* A process observed the stop request and unwound; not a crash. *)
        proc.state <- Finished
    | _ ->
        proc.state <- Crashed e;
        t.crash_list <- (proc.name, e) :: t.crash_list);
    t.live <- t.live - 1
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
          proc.state <- Blocked;
          schedule t (t.now + d) (Ev_resume (proc, k))
        end)
  in
  let h_suspend =
    Some
      (fun (k : (unit, unit) continuation) ->
        let register = t.sc_register in
        t.sc_register <- null_register;
        proc.state <- Blocked;
        let fired = ref false in
        let waker () =
          if not !fired then begin
            fired := true;
            proc.wakeups <- proc.wakeups + 1;
            schedule t t.now (Ev_resume (proc, k))
          end
        in
        register waker)
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | E_delay -> h_delay
    | E_suspend -> h_suspend
    | _ -> None
  in
  match_with f () { retc; exnc; effc }

and spawn : t -> name:string -> (unit -> unit) -> proc =
 fun t ~name f ->
  let proc =
    { pid = t.next_pid; name; account = Account.create (); state = Ready; wakeups = 0 }
  in
  t.next_pid <- t.next_pid + 1;
  t.live <- t.live + 1;
  schedule t t.now (Ev_thunk (fun () -> start_fiber t proc f));
  proc

let wake_after t d waker =
  if d < 0 then invalid_arg "Engine.wake_after: negative";
  schedule t (t.now + d) (Ev_thunk waker)

let run t =
  let slot = Domain.DLS.get dls_current in
  let saved = !slot in
  slot := Some t;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      let events = t.events in
      let rec loop () =
        if t.stop_requested || Heap.is_empty events then ()
        else begin
          let time = Heap.min_key events in
          if time > t.max_time then t.stop_requested <- true
          else begin
            t.now <- time;
            t.executed <- t.executed + 1;
            (match Heap.pop events with
            | Ev_thunk f ->
                t.current <- dummy_proc;
                f ()
            | Ev_resume (proc, k) ->
                t.current <- proc;
                if t.stop_requested then discontinue k Stopped
                else begin
                  proc.state <- Ready;
                  continue k ()
                end);
            loop ()
          end
        end
      in
      loop ())

(* Process-side operations.  [now]/[self]/[stop]/[spawn_child] read the
   engine straight from domain-local storage — no effect round trip, no
   handler dispatch.  [suspend], and any [delay] that cannot finish inline,
   must capture the continuation, so they perform (constant, payload-free)
   effects. *)

let now () = (cur ()).now

let self () =
  let p = (cur ()).current in
  if p == dummy_proc then raise Not_in_simulation else p

(* A delay that the queue would hand straight back to its caller finishes
   inline: when the caller is the running fiber, no stop is pending, the
   wake-up is within [max_time] and every queued event is strictly later
   (an event at the same instant holds a smaller sequence number and would
   run first), the round trip through the handler and the heap would only
   resume this fiber at [now + d].  Doing its bookkeeping here (account,
   clock, sequence number, executed count) leaves every observable of the
   run as it was; all other cases take the queue. *)
let delay ~cat d =
  let t = cur () in
  let p = t.current in
  if
    p.state == Ready
    && (not t.stop_requested)
    && d >= 0
    && d <= t.max_time - t.now
    && (Heap.is_empty t.events || Heap.min_key t.events > t.now + d)
  then begin
    Account.add p.account cat d;
    t.now <- t.now + d;
    t.seq <- t.seq + 1;
    t.executed <- t.executed + 1
  end
  else begin
    t.sc_cat <- cat;
    t.sc_ns <- d;
    try perform E_delay with Effect.Unhandled _ -> raise Not_in_simulation
  end

let suspend register =
  let t = cur () in
  t.sc_register <- register;
  try perform E_suspend with Effect.Unhandled _ -> raise Not_in_simulation

let spawn_child ~name f = spawn (cur ()) ~name f
let stop () = (cur ()).stop_requested <- true

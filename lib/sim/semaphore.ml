type t = {
  name : string;
  capacity : int;
  mutable avail : int;
  waiters : Engine.queue;
  mutable total_wait : int;
  mutable contended : int;
}

let create ?(name = "sem") n =
  if n < 1 then invalid_arg "Semaphore.create: capacity must be >= 1";
  {
    name;
    capacity = n;
    avail = n;
    waiters = Engine.queue ();
    total_wait = 0;
    contended = 0;
  }

let name t = t.name
let capacity t = t.capacity
let available t = t.avail
let waiting t = Engine.waiting t.waiters

let acquire ?(cat = Account.Resource_stall) t =
  if t.avail > 0 && Engine.waiting t.waiters = 0 then t.avail <- t.avail - 1
  else begin
    t.contended <- t.contended + 1;
    t.total_wait <- t.total_wait + Engine.wait ~cat t.waiters
  end

(* Direct handoff: the unit moves to the longest waiter. *)
let release t =
  if not (Engine.wake_one t.waiters) then begin
    if t.avail >= t.capacity then
      invalid_arg (Printf.sprintf "Semaphore.release(%s): over-release" t.name);
    t.avail <- t.avail + 1
  end

let total_wait t = t.total_wait
let contended_acquisitions t = t.contended

type t = {
  name : string;
  capacity : int;
  mutable avail : int;
  waiters : Engine.waker Queue.t;
  mutable total_wait : int;
  mutable contended : int;
}

let create ?(name = "sem") n =
  if n < 1 then invalid_arg "Semaphore.create: capacity must be >= 1";
  {
    name;
    capacity = n;
    avail = n;
    waiters = Queue.create ();
    total_wait = 0;
    contended = 0;
  }

let name t = t.name
let capacity t = t.capacity
let available t = t.avail
let waiting t = Queue.length t.waiters

let acquire ?(cat = Account.Resource_stall) t =
  if t.avail > 0 && Queue.is_empty t.waiters then t.avail <- t.avail - 1
  else begin
    t.contended <- t.contended + 1;
    let t0 = Engine.now () in
    Engine.suspend (fun waker -> Queue.add waker t.waiters);
    let waited = Engine.now () - t0 in
    t.total_wait <- t.total_wait + waited;
    Account.add (Engine.self ()).account cat waited
  end

let release t =
  match Queue.take_opt t.waiters with
  | Some waker -> waker () (* direct handoff: the unit moves to the waiter *)
  | None ->
      if t.avail >= t.capacity then
        invalid_arg (Printf.sprintf "Semaphore.release(%s): over-release" t.name);
      t.avail <- t.avail + 1

let total_wait t = t.total_wait
let contended_acquisitions t = t.contended

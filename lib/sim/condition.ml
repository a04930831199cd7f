type t = { name : string; waiters : Engine.queue }

let create ?(name = "cond") () = { name; waiters = Engine.queue () }

let wait ?(cat = Account.Resource_stall) t =
  ignore (Engine.wait ~cat t.waiters : Time_ns.t)

let signal t = ignore (Engine.wake_one t.waiters : bool)
let broadcast t = Engine.wake_all t.waiters
let waiting t = Engine.waiting t.waiters

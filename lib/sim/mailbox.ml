(* A message sent while receivers wait is handed to the longest-waiting one
   through [handed], never through [items]: a process that calls [recv] at
   the same instant, before the woken receiver runs, must not take it.
   Woken receivers resume in the order they were woken, each taking the
   head of [handed]. *)
type 'a t = {
  name : string;
  items : 'a Queue.t;
  handed : 'a Queue.t;
  receivers : Engine.queue;
}

let create ?(name = "mailbox") () =
  {
    name;
    items = Queue.create ();
    handed = Queue.create ();
    receivers = Engine.queue ();
  }

let send t v =
  if Engine.wake_one t.receivers then Queue.add v t.handed
  else Queue.add v t.items

let recv ?(cat = Account.Sleep) t =
  if Queue.is_empty t.items then begin
    ignore (Engine.wait ~cat t.receivers : Time_ns.t);
    Queue.take t.handed
  end
  else Queue.take t.items

let try_recv t = Queue.take_opt t.items
let length t = Queue.length t.items
let is_empty t = Queue.is_empty t.items

type 'a t = {
  name : string;
  items : 'a Queue.t;
  receivers : ('a option ref * Engine.waker) Queue.t;
}

let create ?(name = "mailbox") () =
  { name; items = Queue.create (); receivers = Queue.create () }

let send t v =
  match Queue.take_opt t.receivers with
  | Some (cell, waker) ->
      cell := Some v;
      waker ()
  | None -> Queue.add v t.items

let recv ?(cat = Account.Sleep) t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None ->
      let cell = ref None in
      let t0 = Engine.now () in
      Engine.suspend (fun waker -> Queue.add (cell, waker) t.receivers);
      let waited = Engine.now () - t0 in
      Account.add (Engine.self ()).account cat waited;
      (match !cell with
      | Some v -> v
      | None -> assert false (* the waker is only fired after the cell is set *))

let try_recv t = Queue.take_opt t.items
let length t = Queue.length t.items
let is_empty t = Queue.is_empty t.items

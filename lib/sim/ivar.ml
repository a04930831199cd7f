type 'a state = Empty of Engine.queue | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty (Engine.queue ()) }

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
      t.state <- Full v;
      Engine.wake_all waiters

let is_filled t = match t.state with Full _ -> true | Empty _ -> false
let peek t = match t.state with Full v -> Some v | Empty _ -> None

let read ?(cat = Account.Resource_stall) t =
  match t.state with
  | Full v -> v
  | Empty waiters -> (
      ignore (Engine.wait ~cat waiters : Time_ns.t);
      match t.state with Full v -> v | Empty _ -> assert false)

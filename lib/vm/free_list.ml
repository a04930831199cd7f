type state =
  | Free
  | Rescuable_daemon
  | Rescuable_releaser
  | Resident
  | Writeback_daemon
  | Writeback_releaser
  | Held
  | Abandoned

type node = { mutable state : state; mutable next : int; mutable prev : int }

type frame = {
  idx : int;
  mutable owner : int;
  mutable vpn : int;
  mutable dirty : bool;
  mutable valid : bool;
  mutable referenced : bool;
  mutable prefetched : bool;
  mutable release_invalidated : bool;
  mutable age : int;
  mutable free_site : int;
  node : node;
}

type t = {
  frames : frame array;
  counts : int array;  (* frames in each state, by [index] *)
  mutable head : int;
  mutable tail : int;
  mutable length : int;
}

let[@inline] index = function
  | Free -> 0
  | Rescuable_daemon -> 1
  | Rescuable_releaser -> 2
  | Resident -> 3
  | Writeback_daemon -> 4
  | Writeback_releaser -> 5
  | Held -> 6
  | Abandoned -> 7

let[@inline] listed = function
  | Free | Rescuable_daemon | Rescuable_releaser -> true
  | Resident | Writeback_daemon | Writeback_releaser | Held | Abandoned -> false

let rescuable : Vm_stats.freer -> state = function
  | Daemon -> Rescuable_daemon
  | Releaser -> Rescuable_releaser

let writeback : Vm_stats.freer -> state = function
  | Daemon -> Writeback_daemon
  | Releaser -> Writeback_releaser

let freer : state -> Vm_stats.freer = function
  | Rescuable_daemon | Writeback_daemon -> Daemon
  | Rescuable_releaser | Writeback_releaser -> Releaser
  | Free | Resident | Held | Abandoned ->
      invalid_arg "Free_list.freer: the frame holds no freed page"

let state f = f.node.state

(* The only writer of a node: the frame leaves the list, joins its tail, or
   keeps its place, and the counts follow. *)
let set t f s =
  let n = f.node in
  let old = n.state in
  if old = s then invalid_arg "Free_list.set: the frame is in that state";
  if listed old && not (listed s) then begin
    if n.prev >= 0 then t.frames.(n.prev).node.next <- n.next
    else t.head <- n.next;
    if n.next >= 0 then t.frames.(n.next).node.prev <- n.prev
    else t.tail <- n.prev;
    t.length <- t.length - 1
  end
  else if listed s && not (listed old) then begin
    n.prev <- t.tail;
    n.next <- -1;
    if t.tail >= 0 then t.frames.(t.tail).node.next <- f.idx else t.head <- f.idx;
    t.tail <- f.idx;
    t.length <- t.length + 1
  end;
  t.counts.(index old) <- t.counts.(index old) - 1;
  t.counts.(index s) <- t.counts.(index s) + 1;
  n.state <- s

let create n =
  let frame idx =
    {
      idx;
      owner = -1;
      vpn = -1;
      dirty = false;
      valid = false;
      referenced = false;
      prefetched = false;
      release_invalidated = false;
      age = 0;
      free_site = -1;
      node = { state = Held; next = -1; prev = -1 };
    }
  in
  let t =
    { frames = Array.init n frame; counts = Array.make 8 0;
      head = -1; tail = -1; length = 0 }
  in
  t.counts.(index Held) <- n;
  Array.iter (fun f -> set t f Free) t.frames;
  t

let frames t = t.frames
let[@inline] count t s = t.counts.(index s)
let length t = t.length
let head t = if t.head < 0 then None else Some t.frames.(t.head)

let conserved t ~resident =
  count t Free + count t Rescuable_daemon + count t Rescuable_releaser
  + count t Resident + count t Writeback_daemon + count t Writeback_releaser
  + count t Held + count t Abandoned
  = Array.length t.frames
  && count t Resident = resident
  && count t Free + count t Rescuable_daemon + count t Rescuable_releaser
     = t.length

let iter t fn =
  let idx = ref t.head in
  while !idx >= 0 do
    let f = t.frames.(!idx) in
    idx := f.node.next;
    fn f
  done

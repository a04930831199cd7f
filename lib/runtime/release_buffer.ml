module IntMap = Map.Make (Int)

(* Tag queues at one priority level form an intrusive doubly-linked list in
   insertion order, so appending a new tag and dropping an emptied one are
   both O(1).  The old representation kept a plain list per level and paid
   O(n) for the [qs @ [q]] append and the [List.filter] removal — quadratic
   over a simulation that cycles through thousands of tags. *)
type tag_queue = {
  tq_tag : int;
  tq_priority : int;
  tq_pages : int Queue.t;
  mutable tq_prev : tag_queue option;
  mutable tq_next : tag_queue option;
}

type level = {
  mutable lv_head : tag_queue option;
  mutable lv_tail : tag_queue option;
}

type t = {
  mutable by_priority : level IntMap.t;
  tags : (int, tag_queue) Hashtbl.t;
  mutable total : int;
}

let create () = { by_priority = IntMap.empty; tags = Hashtbl.create 32; total = 0 }

let append_queue t q =
  let level =
    match IntMap.find_opt q.tq_priority t.by_priority with
    | Some lv -> lv
    | None ->
        let lv = { lv_head = None; lv_tail = None } in
        t.by_priority <- IntMap.add q.tq_priority lv t.by_priority;
        lv
  in
  (match level.lv_tail with
  | None -> level.lv_head <- Some q
  | Some tail ->
      tail.tq_next <- Some q;
      q.tq_prev <- Some tail);
  level.lv_tail <- Some q

(* Unlink an emptied queue from its level; drop the level when it empties. *)
let drop_queue t q =
  Hashtbl.remove t.tags q.tq_tag;
  (match IntMap.find_opt q.tq_priority t.by_priority with
  | None -> ()
  | Some level ->
      (match q.tq_prev with
      | Some p -> p.tq_next <- q.tq_next
      | None -> level.lv_head <- q.tq_next);
      (match q.tq_next with
      | Some n -> n.tq_prev <- q.tq_prev
      | None -> level.lv_tail <- q.tq_prev);
      if level.lv_head = None then
        t.by_priority <- IntMap.remove q.tq_priority t.by_priority);
  q.tq_prev <- None;
  q.tq_next <- None

let add t ~tag ~priority ~vpn =
  if priority <= 0 then invalid_arg "Release_buffer.add: priority must be > 0";
  let q =
    match Hashtbl.find_opt t.tags tag with
    | Some q ->
        if q.tq_priority <> priority then
          invalid_arg "Release_buffer.add: tag reused with a different priority";
        q
    | None ->
        let q =
          {
            tq_tag = tag;
            tq_priority = priority;
            tq_pages = Queue.create ();
            tq_prev = None;
            tq_next = None;
          }
        in
        Hashtbl.replace t.tags tag q;
        append_queue t q;
        q
  in
  Queue.add vpn q.tq_pages;
  t.total <- t.total + 1

let total t = t.total
let queue_count t = Hashtbl.length t.tags

let lowest_priority t =
  match IntMap.min_binding_opt t.by_priority with
  | Some (p, _) -> Some p
  | None -> None

let pop_lowest t ~max:limit =
  let out = ref [] in
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < limit do
    match IntMap.min_binding_opt t.by_priority with
    | None -> continue_ := false
    | Some (_, level) ->
        (* One page from each queue at this priority, round-robin in tag
           insertion order, until the budget is spent or the level empties
           (emptied queues are unlinked as we pass them). *)
        let cursor = ref level.lv_head in
        while !n < limit && level.lv_head <> None do
          match !cursor with
          | None -> cursor := level.lv_head (* wrap: next round *)
          | Some q ->
              let next = q.tq_next in
              (match Queue.take_opt q.tq_pages with
              | Some vpn ->
                  out := (vpn, q.tq_tag, q.tq_priority) :: !out;
                  incr n;
                  t.total <- t.total - 1
              | None -> ());
              if Queue.is_empty q.tq_pages then drop_queue t q;
              cursor := next
        done
  done;
  Array.of_list (List.rev !out)

let flush_tag t ~tag =
  match Hashtbl.find_opt t.tags tag with
  | None -> [||]
  | Some q ->
      let len = Queue.length q.tq_pages in
      let out = Array.make len 0 in
      for i = 0 to len - 1 do
        out.(i) <- Queue.pop q.tq_pages
      done;
      t.total <- t.total - len;
      drop_queue t q;
      out

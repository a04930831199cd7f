open Memhog_sim

type kind = Prefetch | Urgent_prefetch | Release

type slot = {
  id : int;  (* its index in [slots] *)
  mutable kind : kind;
  mutable vpn : int;
  mutable site : int;
  batch : Int_ring.t;  (* the release batch last received *)
  parked : Engine.queue;  (* the slot's helper, while it idles *)
}

(* Waiting items: a ring of (vpn, site, kind) records, the kind as an int.
   A release item's vpn field is its batch's page count, and the batch's
   (vpn, site, priority) pages wait in [pages], in ring order.  A batch
   handed straight to an idle helper goes into its slot instead, never
   through the rings, where a helper that finishes at the same instant
   would take it first. *)
type t = {
  items : Int_ring.t;
  pages : Int_ring.t;
  mutable slots : slot array;  (* every slot of [t], by id *)
  idle : Int_ring.t;  (* idle helpers' slot ids, longest idle first *)
}

let k_prefetch = 0
let k_urgent = 1
let k_release = 2

let create () =
  {
    items = Int_ring.create ~width:3;
    pages = Int_ring.create ~width:3;
    slots = [||];
    idle = Int_ring.create ~width:1;
  }

let slot t =
  let s =
    {
      id = Array.length t.slots;
      kind = Prefetch;
      vpn = 0;
      site = 0;
      batch = Int_ring.create ~width:3;
      parked = Engine.queue ();
    }
  in
  t.slots <- Array.append t.slots [| s |];
  s

(* The slot of the helper idle longest. *)
let take_idle t =
  let s = t.slots.(Int_ring.get t.idle 0 0) in
  Int_ring.drop t.idle 1;
  s

let send_prefetch t ~vpn ~site ~urgent =
  if Int_ring.length t.idle = 0 then
    Int_ring.push3 t.items vpn site (if urgent then k_urgent else k_prefetch)
  else begin
    let s = take_idle t in
    s.kind <- (if urgent then Urgent_prefetch else Prefetch);
    s.vpn <- vpn;
    s.site <- site;
    ignore (Engine.wake_one s.parked : bool)
  end

let send_release t batch =
  if Int_ring.width batch <> 3 then
    invalid_arg "Work_fifo.send_release: batch must have width 3";
  let n = Int_ring.length batch in
  if Int_ring.length t.idle = 0 then begin
    Int_ring.push3 t.items n 0 k_release;
    Int_ring.transfer ~src:batch ~dst:t.pages n
  end
  else begin
    let s = take_idle t in
    s.kind <- Release;
    Int_ring.clear s.batch;
    Int_ring.transfer ~src:batch ~dst:s.batch n;
    ignore (Engine.wake_one s.parked : bool)
  end

let recv t s =
  if Int_ring.length t.items > 0 then begin
    let a = Int_ring.get t.items 0 0 and k = Int_ring.get t.items 0 2 in
    if k = k_release then begin
      Int_ring.clear s.batch;
      Int_ring.transfer ~src:t.pages ~dst:s.batch a;
      s.kind <- Release
    end
    else begin
      s.vpn <- a;
      s.site <- Int_ring.get t.items 0 1;
      s.kind <- (if k = k_urgent then Urgent_prefetch else Prefetch)
    end;
    Int_ring.drop t.items 1
  end
  else begin
    (* As [Mailbox.recv]: the wait for work is idle time. *)
    Int_ring.push1 t.idle s.id;
    ignore (Engine.wait ~cat:Account.Sleep s.parked : Time_ns.t)
  end;
  s.kind

let vpn s = s.vpn
let site s = s.site
let batch s = s.batch

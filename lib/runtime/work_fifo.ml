open Memhog_sim

type kind = Prefetch | Urgent_prefetch | Release

type slot = {
  mutable kind : kind;
  mutable vpn : int;
  mutable site : int;
  mutable batch : (int * int * int) array;
  parked : Engine.queue;  (* the slot's helper, while it idles *)
}

(* Waiting items: a ring of (vpn, site, kind) columns whose capacity is a
   power of two, [head] its oldest entry.  A release batch's triples wait in
   [batches], in ring order; a batch handed straight to an idle helper goes
   into its slot instead, never through [batches], where a helper that
   finishes at the same instant would take it first. *)
type t = {
  mutable vpns : int array;
  mutable sites : int array;
  mutable kinds : kind array;
  mutable head : int;
  mutable len : int;
  batches : (int * int * int) array Queue.t;
  idle : slot Queue.t;  (* idle helpers' slots, longest idle first *)
}

let create () =
  {
    vpns = [||];
    sites = [||];
    kinds = [||];
    head = 0;
    len = 0;
    batches = Queue.create ();
    idle = Queue.create ();
  }

let slot (_ : t) =
  { kind = Prefetch; vpn = 0; site = 0; batch = [||]; parked = Engine.queue () }

(* Copy the ring's live entries of [src] to the front of [dst]. *)
let unwrap t src dst =
  let first = Int.min t.len (Array.length src - t.head) in
  Array.blit src t.head dst 0 first;
  Array.blit src 0 dst first (t.len - first)

let grow t =
  let cap = Int.max 16 (2 * Array.length t.vpns) in
  let vpns = Array.make cap 0 and sites = Array.make cap 0 in
  let kinds = Array.make cap Prefetch in
  unwrap t t.vpns vpns;
  unwrap t t.sites sites;
  unwrap t t.kinds kinds;
  t.vpns <- vpns;
  t.sites <- sites;
  t.kinds <- kinds;
  t.head <- 0

let push t kind ~vpn ~site =
  if t.len = Array.length t.vpns then grow t;
  let i = (t.head + t.len) land (Array.length t.vpns - 1) in
  t.vpns.(i) <- vpn;
  t.sites.(i) <- site;
  t.kinds.(i) <- kind;
  t.len <- t.len + 1

let send_prefetch t ~vpn ~site ~urgent =
  let kind = if urgent then Urgent_prefetch else Prefetch in
  if Queue.is_empty t.idle then push t kind ~vpn ~site
  else begin
    let s = Queue.take t.idle in
    s.kind <- kind;
    s.vpn <- vpn;
    s.site <- site;
    ignore (Engine.wake_one s.parked : bool)
  end

let send_release t triples =
  if Queue.is_empty t.idle then begin
    push t Release ~vpn:0 ~site:0;
    Queue.add triples t.batches
  end
  else begin
    let s = Queue.take t.idle in
    s.kind <- Release;
    s.batch <- triples;
    ignore (Engine.wake_one s.parked : bool)
  end

let recv t s =
  if t.len > 0 then begin
    let i = t.head in
    let kind = t.kinds.(i) in
    (match kind with
    | Release -> s.batch <- Queue.take t.batches
    | Prefetch | Urgent_prefetch ->
        s.vpn <- t.vpns.(i);
        s.site <- t.sites.(i));
    s.kind <- kind;
    t.head <- (i + 1) land (Array.length t.vpns - 1);
    t.len <- t.len - 1
  end
  else begin
    (* As [Mailbox.recv]: the wait for work is idle time. *)
    Queue.add s t.idle;
    ignore (Engine.wait ~cat:Account.Sleep s.parked : Time_ns.t)
  end;
  s.kind

let vpn s = s.vpn
let site s = s.site

let take_batch s =
  let batch = s.batch in
  s.batch <- [||];
  batch

(* Per-request critical-path spans with blame attribution.

   The additive decomposition is enforced structurally: each span keeps
   a running boundary mark; start charges [now - arrival] to queue wait,
   every subsequent note charges [now - mark] to its component and moves
   the mark, and finish folds the remainder into compute.  The five
   components therefore telescope to [finish_now - arrival] — the
   recorded response — exactly, whatever the caller does in between.

   Spans are preallocated and recycled through a free list; above [cap]
   committed requests the reservoir degrades to Algorithm R driven by a
   private seeded stream, so the sampled set is a deterministic function
   of the cell's seed.  Population-exact numbers (per-component
   histograms, disk/transit/bypass totals, prefetch race counts) are
   accumulated at every commit, not just for reservoir survivors. *)

type touch_kind = Index | Value
type touch_outcome = Hit | Soft | Hard

let max_children = 16
let max_slacks = 4

type span = {
  mutable sp_id : int;
  mutable sp_key : int;
  mutable sp_arrival : Time_ns.t;
  mutable sp_response : Time_ns.t;
  mutable sp_queue : Time_ns.t;
  mutable sp_index : Time_ns.t;
  mutable sp_value : Time_ns.t;
  mutable sp_cpu : Time_ns.t;
  mutable sp_compute : Time_ns.t;
  mutable sp_disk_queue : Time_ns.t;
  mutable sp_disk_service : Time_ns.t;
  mutable sp_transit : Time_ns.t;
  mutable sp_bypasses : int;
  mutable sp_pf_hidden : int;
  mutable sp_pf_lost : int;
  mutable sp_pf_slack : Time_ns.t;
  mutable sp_mark : Time_ns.t;
  mutable sp_nchild : int;
  sp_child_kind : int array;
  sp_child_start : Time_ns.t array;
  sp_child_dur : Time_ns.t array;
  mutable sp_nslack : int;
  sp_slack : Time_ns.t array;
}

let kind_disk_queue = 0
let kind_disk_io = 1
let kind_transit = 2

let child_kind_name = function
  | 0 -> "disk_queue"
  | 1 -> "disk_io"
  | _ -> "transit"

let children sp =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        ((child_kind_name sp.sp_child_kind.(i), sp.sp_child_start.(i),
          sp.sp_child_dur.(i))
        :: acc)
  in
  go (sp.sp_nchild - 1) []

let new_span () =
  {
    sp_id = -1;
    sp_key = 0;
    sp_arrival = 0;
    sp_response = 0;
    sp_queue = 0;
    sp_index = 0;
    sp_value = 0;
    sp_cpu = 0;
    sp_compute = 0;
    sp_disk_queue = 0;
    sp_disk_service = 0;
    sp_transit = 0;
    sp_bypasses = 0;
    sp_pf_hidden = 0;
    sp_pf_lost = 0;
    sp_pf_slack = 0;
    sp_mark = 0;
    sp_nchild = 0;
    sp_child_kind = Array.make max_children 0;
    sp_child_start = Array.make max_children 0;
    sp_child_dur = Array.make max_children 0;
    sp_nslack = 0;
    sp_slack = Array.make max_slacks 0;
  }

let reset_span sp ~key ~arrival ~now =
  sp.sp_id <- -1;
  sp.sp_key <- key;
  sp.sp_arrival <- arrival;
  sp.sp_response <- 0;
  sp.sp_queue <- now - arrival;
  sp.sp_index <- 0;
  sp.sp_value <- 0;
  sp.sp_cpu <- 0;
  sp.sp_compute <- 0;
  sp.sp_disk_queue <- 0;
  sp.sp_disk_service <- 0;
  sp.sp_transit <- 0;
  sp.sp_bypasses <- 0;
  sp.sp_pf_hidden <- 0;
  sp.sp_pf_lost <- 0;
  sp.sp_pf_slack <- 0;
  sp.sp_mark <- now;
  sp.sp_nchild <- 0;
  sp.sp_nslack <- 0

let blit_span src dst =
  dst.sp_id <- src.sp_id;
  dst.sp_key <- src.sp_key;
  dst.sp_arrival <- src.sp_arrival;
  dst.sp_response <- src.sp_response;
  dst.sp_queue <- src.sp_queue;
  dst.sp_index <- src.sp_index;
  dst.sp_value <- src.sp_value;
  dst.sp_cpu <- src.sp_cpu;
  dst.sp_compute <- src.sp_compute;
  dst.sp_disk_queue <- src.sp_disk_queue;
  dst.sp_disk_service <- src.sp_disk_service;
  dst.sp_transit <- src.sp_transit;
  dst.sp_bypasses <- src.sp_bypasses;
  dst.sp_pf_hidden <- src.sp_pf_hidden;
  dst.sp_pf_lost <- src.sp_pf_lost;
  dst.sp_pf_slack <- src.sp_pf_slack;
  dst.sp_mark <- src.sp_mark;
  dst.sp_nchild <- src.sp_nchild;
  Array.blit src.sp_child_kind 0 dst.sp_child_kind 0 src.sp_nchild;
  Array.blit src.sp_child_start 0 dst.sp_child_start 0 src.sp_nchild;
  Array.blit src.sp_child_dur 0 dst.sp_child_dur 0 src.sp_nchild;
  dst.sp_nslack <- src.sp_nslack;
  Array.blit src.sp_slack 0 dst.sp_slack 0 src.sp_nslack

let add_child sp ~kind ~start ~dur =
  if sp.sp_nchild < max_children then begin
    sp.sp_child_kind.(sp.sp_nchild) <- kind;
    sp.sp_child_start.(sp.sp_nchild) <- start;
    sp.sp_child_dur.(sp.sp_nchild) <- dur;
    sp.sp_nchild <- sp.sp_nchild + 1
  end

type t = {
  on : bool;
  cap : int;
  rng : Rng.t;
  reservoir : span array;
  mutable committed : int;
  slowest_span : span;
  mutable have_slowest : bool;
  (* Serving-fiber pid -> its span record, kept for reuse across requests;
     [live] marks the fibers with a request in flight.  Pids are dense
     from 0, and only [start] grows these arrays. *)
  mutable spans : span array;
  mutable live : bool array;
  (* Owner (address space) -> vpn -> last urgent issue time (-1: none)
     and last observed prefetch I/O span (0: none).  Every address space
     numbers its pages from 0, so the owner is part of the key.  Only the
     two [note_prefetch_*] calls grow them. *)
  mutable pf_issue : int array array;
  mutable pf_io : int array array;
  h_response : Histogram.t;
  h_queue : Histogram.t;
  h_index : Histogram.t;
  h_value : Histogram.t;
  h_cpu : Histogram.t;
  h_compute : Histogram.t;
  h_pf_slack : Histogram.t;
  mutable tot_disk_queue : Time_ns.t;
  mutable tot_disk_service : Time_ns.t;
  mutable tot_transit : Time_ns.t;
  mutable tot_bypasses : int;
  mutable tot_pf_hidden : int;
  mutable tot_pf_lost : int;
}

(* Stands in for the span of a pid that never started one. *)
let no_span = new_span ()

let make ~on ~cap ~seed =
  {
    on;
    cap;
    rng = Rng.create ~seed;
    reservoir = Array.init (Int.max cap 0) (fun _ -> new_span ());
    committed = 0;
    slowest_span = new_span ();
    have_slowest = false;
    spans = [||];
    live = [||];
    pf_issue = [||];
    pf_io = [||];
    h_response = Histogram.create ();
    h_queue = Histogram.create ();
    h_index = Histogram.create ();
    h_value = Histogram.create ();
    h_cpu = Histogram.create ();
    h_compute = Histogram.create ();
    h_pf_slack = Histogram.create ();
    tot_disk_queue = 0;
    tot_disk_service = 0;
    tot_transit = 0;
    tot_bypasses = 0;
    tot_pf_hidden = 0;
    tot_pf_lost = 0;
  }

let null = make ~on:false ~cap:0 ~seed:0
let create ?(cap = 4096) ~seed () = make ~on:true ~cap:(Int.max cap 1) ~seed
let enabled t = t.on
let committed t = t.committed
let sampled t = Int.min t.committed t.cap

(* Grow [a] (doubling) so that index [i] fits, filling with [fill]. *)
let grown a i fill =
  if i < 0 then
    invalid_arg (Printf.sprintf "Reqtrace: negative pid or vpn %d" i);
  let b = Array.make (Int.max (i + 1) (Int.max 64 (2 * Array.length a))) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* [tbl]'s entry for page (owner, vpn), or [absent]; never grows anything. *)
let[@inline] lookup tbl ~owner ~vpn absent =
  if owner >= 0 && owner < Array.length tbl then begin
    let a = tbl.(owner) in
    if vpn >= 0 && vpn < Array.length a then a.(vpn) else absent
  end
  else absent

(* [tbl], grown (filling with [fill]) to hold page (owner, vpn). *)
let with_page tbl ~owner ~vpn fill =
  let tbl =
    if owner < 0 || owner >= Array.length tbl then grown tbl owner [||] else tbl
  in
  let a = tbl.(owner) in
  if vpn < 0 || vpn >= Array.length a then tbl.(owner) <- grown a vpn fill;
  tbl

(* The in-flight span of fiber [pid], or [no_span]; never grows anything. *)
let[@inline] active t pid =
  if pid >= 0 && pid < Array.length t.live && t.live.(pid) then t.spans.(pid)
  else no_span

let start t ~pid ~key ~arrival ~now =
  if t.on then begin
    if pid < 0 || pid >= Array.length t.spans then begin
      t.spans <- grown t.spans pid no_span;
      t.live <- grown t.live pid false
    end;
    (* The fiber's record is reused, even when its last span never
       finished. *)
    let sp =
      if t.spans.(pid) != no_span then t.spans.(pid)
      else begin
        let sp = new_span () in
        t.spans.(pid) <- sp;
        sp
      end
    in
    t.live.(pid) <- true;
    reset_span sp ~key ~arrival ~now
  end

let note_touch t ~pid ~owner ~kind ~vpn ~outcome ~now =
  let sp = active t pid in
  if sp != no_span then begin
    let stall = now - sp.sp_mark in
    (match kind with
    | Index -> sp.sp_index <- sp.sp_index + stall
    | Value -> sp.sp_value <- sp.sp_value + stall);
    sp.sp_mark <- now;
    (* Settle the urgent-prefetch race for this page, if one was issued. *)
    let issued = lookup t.pf_issue ~owner ~vpn (-1) in
    if issued >= 0 then
      match outcome with
      | Hard -> sp.sp_pf_lost <- sp.sp_pf_lost + 1
      | Hit | Soft ->
          sp.sp_pf_hidden <- sp.sp_pf_hidden + 1;
          let io = lookup t.pf_io ~owner ~vpn 0 in
          let slack = Int.max 0 (now - issued - io) in
          sp.sp_pf_slack <- sp.sp_pf_slack + slack;
          if sp.sp_nslack < max_slacks then begin
            sp.sp_slack.(sp.sp_nslack) <- slack;
            sp.sp_nslack <- sp.sp_nslack + 1
          end
  end

let note_cpu_acquired t ~pid ~now =
  let sp = active t pid in
  if sp != no_span then begin
    sp.sp_cpu <- sp.sp_cpu + (now - sp.sp_mark);
    sp.sp_mark <- now
  end

let commit t sp =
  let n = t.committed + 1 in
  t.committed <- n;
  sp.sp_id <- n - 1;
  Histogram.record t.h_response sp.sp_response;
  Histogram.record t.h_queue sp.sp_queue;
  Histogram.record t.h_index sp.sp_index;
  Histogram.record t.h_value sp.sp_value;
  Histogram.record t.h_cpu sp.sp_cpu;
  Histogram.record t.h_compute sp.sp_compute;
  for i = 0 to sp.sp_nslack - 1 do
    Histogram.record t.h_pf_slack sp.sp_slack.(i)
  done;
  t.tot_disk_queue <- t.tot_disk_queue + sp.sp_disk_queue;
  t.tot_disk_service <- t.tot_disk_service + sp.sp_disk_service;
  t.tot_transit <- t.tot_transit + sp.sp_transit;
  t.tot_bypasses <- t.tot_bypasses + sp.sp_bypasses;
  t.tot_pf_hidden <- t.tot_pf_hidden + sp.sp_pf_hidden;
  t.tot_pf_lost <- t.tot_pf_lost + sp.sp_pf_lost;
  if (not t.have_slowest) || sp.sp_response > t.slowest_span.sp_response
  then begin
    blit_span sp t.slowest_span;
    t.have_slowest <- true
  end;
  if n <= t.cap then blit_span sp t.reservoir.(n - 1)
  else begin
    (* Algorithm R: keep each of the n spans with probability cap/n. *)
    let j = Rng.int t.rng n in
    if j < t.cap then blit_span sp t.reservoir.(j)
  end

let finish t ~pid ~commit:do_commit ~now =
  let sp = active t pid in
  if sp != no_span then begin
    sp.sp_compute <- sp.sp_compute + (now - sp.sp_mark);
    sp.sp_mark <- now;
    sp.sp_response <- now - sp.sp_arrival;
    t.live.(pid) <- false;
    if do_commit then commit t sp
  end

let note_disk_queue t ~pid ~start ~ns ~bypassed =
  let sp = active t pid in
  if sp != no_span then begin
    sp.sp_disk_queue <- sp.sp_disk_queue + ns;
    if bypassed then sp.sp_bypasses <- sp.sp_bypasses + 1;
    add_child sp ~kind:kind_disk_queue ~start ~dur:ns
  end

let note_disk_service t ~pid ~start ~ns =
  let sp = active t pid in
  if sp != no_span then begin
    sp.sp_disk_service <- sp.sp_disk_service + ns;
    add_child sp ~kind:kind_disk_io ~start ~dur:ns
  end

let note_transit t ~pid ~start ~ns =
  let sp = active t pid in
  if sp != no_span then begin
    sp.sp_transit <- sp.sp_transit + ns;
    add_child sp ~kind:kind_transit ~start ~dur:ns
  end

let note_prefetch_issued t ~owner ~vpn ~now =
  if t.on then begin
    t.pf_issue <- with_page t.pf_issue ~owner ~vpn (-1);
    t.pf_issue.(owner).(vpn) <- now
  end

let note_prefetch_done t ~owner ~vpn ~ns =
  if t.on then begin
    t.pf_io <- with_page t.pf_io ~owner ~vpn 0;
    t.pf_io.(owner).(vpn) <- ns
  end

let iter_sampled t f =
  for i = 0 to sampled t - 1 do
    f t.reservoir.(i)
  done

let slowest t = if t.have_slowest then Some t.slowest_span else None

type band = {
  bd_label : string;
  bd_count : int;
  bd_queue : Time_ns.t;
  bd_index : Time_ns.t;
  bd_value : Time_ns.t;
  bd_cpu : Time_ns.t;
  bd_compute : Time_ns.t;
  bd_response : Time_ns.t;
}

type summary = {
  su_committed : int;
  su_sampled : int;
  su_cap : int;
  su_p50 : Time_ns.t;
  su_p99 : Time_ns.t;
  su_p999 : Time_ns.t;
  su_bands : band list;
  su_response : Histogram.t;
  su_queue : Histogram.t;
  su_index : Histogram.t;
  su_value : Histogram.t;
  su_cpu : Histogram.t;
  su_compute : Histogram.t;
  su_pf_slack : Histogram.t;
  su_pf_hidden : int;
  su_pf_lost : int;
  su_bypasses : int;
  su_disk_queue : Time_ns.t;
  su_disk_service : Time_ns.t;
  su_transit : Time_ns.t;
}

let summarize t =
  let p50 = Histogram.percentile t.h_response 50.0 in
  let p99 = Histogram.percentile t.h_response 99.0 in
  let p999 = Histogram.percentile t.h_response 99.9 in
  let labels = [| "body"; "tail"; "deep" |] in
  let count = Array.make 3 0 in
  let queue = Array.make 3 0 in
  let index = Array.make 3 0 in
  let value = Array.make 3 0 in
  let cpu = Array.make 3 0 in
  let compute = Array.make 3 0 in
  let response = Array.make 3 0 in
  iter_sampled t (fun sp ->
      let b =
        if sp.sp_response >= p999 then 2
        else if sp.sp_response >= p99 then 1
        else 0
      in
      count.(b) <- count.(b) + 1;
      queue.(b) <- queue.(b) + sp.sp_queue;
      index.(b) <- index.(b) + sp.sp_index;
      value.(b) <- value.(b) + sp.sp_value;
      cpu.(b) <- cpu.(b) + sp.sp_cpu;
      compute.(b) <- compute.(b) + sp.sp_compute;
      response.(b) <- response.(b) + sp.sp_response);
  let bands =
    List.init 3 (fun b ->
        {
          bd_label = labels.(b);
          bd_count = count.(b);
          bd_queue = queue.(b);
          bd_index = index.(b);
          bd_value = value.(b);
          bd_cpu = cpu.(b);
          bd_compute = compute.(b);
          bd_response = response.(b);
        })
  in
  {
    su_committed = t.committed;
    su_sampled = sampled t;
    su_cap = t.cap;
    su_p50 = p50;
    su_p99 = p99;
    su_p999 = p999;
    su_bands = bands;
    su_response = t.h_response;
    su_queue = t.h_queue;
    su_index = t.h_index;
    su_value = t.h_value;
    su_cpu = t.h_cpu;
    su_compute = t.h_compute;
    su_pf_slack = t.h_pf_slack;
    su_pf_hidden = t.tot_pf_hidden;
    su_pf_lost = t.tot_pf_lost;
    su_bypasses = t.tot_bypasses;
    su_disk_queue = t.tot_disk_queue;
    su_disk_service = t.tot_disk_service;
    su_transit = t.tot_transit;
  }

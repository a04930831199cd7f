(* Tests for the run-time layer: the priority release buffer, the request
   filters, the release policies and the helper threads' work FIFO. *)

open Memhog_sim
module Vm = Memhog_vm
module Os = Vm.Os
module As = Vm.Address_space
module Runtime = Memhog_runtime.Runtime
module Release_buffer = Memhog_runtime.Release_buffer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [Release_buffer.pop_lowest] as (vpn, tag, priority) triples. *)
let pop b ~max =
  let out = Int_ring.create ~width:3 in
  Release_buffer.pop_lowest b ~max out;
  Array.init (Int_ring.length out) (fun i ->
      (Int_ring.get out i 0, Int_ring.get out i 1, Int_ring.get out i 2))

(* ------------------------------------------------------------------ *)
(* Release buffer                                                      *)
(* ------------------------------------------------------------------ *)

let test_buffer_lowest_priority_first () =
  let b = Release_buffer.create () in
  Release_buffer.add b ~tag:1 ~priority:2 ~vpn:100;
  Release_buffer.add b ~tag:2 ~priority:1 ~vpn:200;
  Release_buffer.add b ~tag:1 ~priority:2 ~vpn:101;
  Release_buffer.add b ~tag:2 ~priority:1 ~vpn:201;
  check_int "total" 4 (Release_buffer.total b);
  let first = pop b ~max:2 in
  Alcotest.(check (array (triple int int int)))
    "priority-1 pages first" [| (200, 2, 1); (201, 2, 1) |] first;
  let second = pop b ~max:10 in
  Alcotest.(check (array (triple int int int)))
    "then priority-2 pages" [| (100, 1, 2); (101, 1, 2) |] second;
  check_int "drained" 0 (Release_buffer.total b)

let test_buffer_round_robin_same_priority () =
  let b = Release_buffer.create () in
  (* two tags at the same priority: drain alternates between them *)
  List.iter (fun v -> Release_buffer.add b ~tag:1 ~priority:1 ~vpn:v) [ 10; 11; 12 ];
  List.iter (fun v -> Release_buffer.add b ~tag:2 ~priority:1 ~vpn:v) [ 20; 21; 22 ];
  let out = pop b ~max:4 in
  Alcotest.(check (array (triple int int int)))
    "round robin" [| (10, 1, 1); (20, 2, 1); (11, 1, 1); (21, 2, 1) |] out

let test_buffer_respects_max () =
  let b = Release_buffer.create () in
  for v = 0 to 99 do
    Release_buffer.add b ~tag:(v mod 3) ~priority:((v mod 3) + 1) ~vpn:v
  done;
  let out = pop b ~max:10 in
  check_int "max respected" 10 (Array.length out);
  check_int "rest stays" 90 (Release_buffer.total b)

let test_buffer_rejects_zero_priority () =
  let b = Release_buffer.create () in
  Alcotest.check_raises "zero priority"
    (Invalid_argument "Release_buffer.add: priority must be > 0") (fun () ->
      Release_buffer.add b ~tag:1 ~priority:0 ~vpn:1);
  Alcotest.check_raises "negative priority"
    (Invalid_argument "Release_buffer.add: priority must be > 0") (fun () ->
      Release_buffer.add b ~tag:1 ~priority:(-3) ~vpn:1)

let test_buffer_same_tag_pop_refill_interleaved () =
  (* pops and refills interleaved on one tag: a partial pop must leave the
     tag's queue intact (FIFO), the next pop must return exactly the
     remainder in order, and the emptied tag must be reusable at a new
     priority. *)
  let b = Release_buffer.create () in
  List.iter (fun v -> Release_buffer.add b ~tag:1 ~priority:2 ~vpn:v) [ 10; 11; 12 ];
  Alcotest.(check (array (triple int int int))) "partial pop" [| (10, 1, 2) |]
    (pop b ~max:1);
  List.iter (fun v -> Release_buffer.add b ~tag:1 ~priority:2 ~vpn:v) [ 13; 14 ];
  Alcotest.(check (array (triple int int int))) "the rest in order"
    [| (11, 1, 2); (12, 1, 2); (13, 1, 2); (14, 1, 2) |]
    (pop b ~max:10);
  check_int "empty after the pops" 0 (Release_buffer.total b);
  Release_buffer.add b ~tag:1 ~priority:1 ~vpn:99;
  Alcotest.(check (array (triple int int int)))
    "reused tag pops at its new priority" [| (99, 1, 1) |]
    (pop b ~max:4)

let test_buffer_preserves_site_ids () =
  (* Regression for the ledger's site attribution: pages from two sites
     interleaved at the same priority must each come back stamped with the
     tag they were added under — through partial pops, a tag that empties
     and comes back, and refills of the other. *)
  let b = Release_buffer.create () in
  let site_of = Hashtbl.create 16 in
  let add ~tag vpn =
    Hashtbl.replace site_of vpn tag;
    Release_buffer.add b ~tag ~priority:1 ~vpn
  in
  List.iter (fun v -> add ~tag:3 v) [ 30; 31 ];
  List.iter (fun v -> add ~tag:5 v) [ 50; 51 ];
  List.iter (fun v -> add ~tag:3 v) [ 32 ];
  let check_pairs what pairs =
    Array.iter
      (fun (v, tag, _prio) ->
        check_int (Printf.sprintf "%s: vpn %d keeps its site" what v)
          (Hashtbl.find site_of v) tag)
      pairs
  in
  check_pairs "first pop" (pop b ~max:3);
  (* site 3 empties, and comes back behind site 5 *)
  check_pairs "second pop" (pop b ~max:1);
  List.iter (fun v -> add ~tag:5 v) [ 52 ];
  List.iter (fun v -> add ~tag:3 v) [ 33 ];
  check_pairs "after refills" (pop b ~max:10);
  check_int "all drained" 0 (Release_buffer.total b)

let prop_buffer_conserves_pages =
  QCheck.Test.make ~name:"buffer: pages in = pages out" ~count:100
    QCheck.(list (pair (int_bound 7) (int_bound 1000)))
    (fun adds ->
      let b = Release_buffer.create () in
      let n = ref 0 in
      List.iter
        (fun (tag, vpn) ->
          Release_buffer.add b ~tag ~priority:((tag mod 3) + 1) ~vpn;
          incr n)
        adds;
      let out = ref [] in
      let rec drain () =
        let batch = pop b ~max:7 in
        if Array.length batch > 0 then begin
          out := Array.to_list batch @ !out;
          drain ()
        end
      in
      drain ();
      List.length !out = !n && Release_buffer.total b = 0)

let prop_buffer_priority_order =
  QCheck.Test.make ~name:"buffer: drain priority never decreases" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 300) (int_range 1 5))
    (fun priorities ->
      (* the int_range shrinker can wander outside its bounds *)
      QCheck.assume (List.for_all (fun p -> p >= 1 && p <= 5) priorities);
      let b = Release_buffer.create () in
      let prio_of = Hashtbl.create 16 in
      List.iteri
        (fun i priority ->
          (* the index is the page: one unique vpn per entry; tag =
             priority so tags never span priorities *)
          let vpn = i in
          Hashtbl.replace prio_of vpn priority;
          Release_buffer.add b ~tag:priority ~priority ~vpn)
        priorities;
      let order = ref [] in
      let rec drain () =
        let batch = pop b ~max:3 in
        if Array.length batch > 0 then begin
          Array.iter
            (fun (v, _, _) -> order := Hashtbl.find prio_of v :: !order)
            batch;
          drain ()
        end
      in
      drain ();
      let priorities = List.rev !order in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing priorities)

(* Interleaved add / pop_lowest against a naive model.  After every
   operation [total] must track the model, and each popped batch must take
   lowest-priority pages first (nothing cheaper left behind), stay FIFO
   within a tag, and stamp each page with the tag it was added under. *)
let prop_buffer_interleaved_ops =
  QCheck.Test.make ~name:"buffer: interleaved ops match naive model" ~count:100
    QCheck.(list (triple (int_bound 2) (int_bound 5) (int_range 1 8)))
    (fun ops ->
      (* the int_range shrinker can wander outside its bounds *)
      QCheck.assume (List.for_all (fun (_, _, k) -> k >= 1 && k <= 8) ops);
      let b = Release_buffer.create () in
      (* model: (tag, priority, vpn) in insertion order; vpns are unique *)
      let model = ref [] in
      let next_vpn = ref 0 in
      let ok = ref true in
      let require c = if not c then ok := false in
      let prio_of_tag tag = (tag mod 3) + 1 in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      List.iter
        (fun (kind, tag, k) ->
          if !ok then begin
            (match kind with
            | 2 ->
                let pairs = Array.to_list (pop b ~max:k) in
                let popped = List.map (fun (v, _, _) -> v) pairs in
                require (List.length popped = min k (List.length !model));
                let entry vpn = List.find_opt (fun (_, _, v) -> v = vpn) !model in
                require (List.for_all (fun v -> entry v <> None) popped);
                (* every popped page carries the tag it was added under *)
                require
                  (List.for_all
                     (fun (v, tg, _) ->
                       match entry v with
                       | Some (t', _, _) -> t' = tg
                       | None -> false)
                     pairs);
                if !ok then begin
                  let prios =
                    List.map
                      (fun v ->
                        match entry v with Some (_, p, _) -> p | None -> 0)
                      popped
                  in
                  (* lowest priorities first, and never skipped: anything
                     left behind costs at least as much as the last pop *)
                  require (nondecreasing prios);
                  let remaining =
                    List.filter (fun (_, _, v) -> not (List.mem v popped)) !model
                  in
                  (match List.rev prios with
                  | last :: _ ->
                      require
                        (List.for_all (fun (_, p, _) -> p >= last) remaining)
                  | [] -> ());
                  (* FIFO within a tag: for each tag the popped pages are a
                     prefix of that tag's queue, in insertion order *)
                  List.iter
                    (fun tg ->
                      let popped_tg =
                        List.filter
                          (fun v ->
                            match entry v with
                            | Some (t', _, _) -> t' = tg
                            | None -> false)
                          popped
                      in
                      let queued_tg =
                        List.filter_map
                          (fun (t', _, v) -> if t' = tg then Some v else None)
                          !model
                      in
                      let rec is_prefix xs ys =
                        match (xs, ys) with
                        | [], _ -> true
                        | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
                        | _ :: _, [] -> false
                      in
                      require (is_prefix popped_tg queued_tg))
                    (List.sort_uniq compare
                       (List.map (fun (t', _, _) -> t') !model));
                  model := remaining
                end
            | _ ->
                let vpn = !next_vpn in
                incr next_vpn;
                Release_buffer.add b ~tag ~priority:(prio_of_tag tag) ~vpn;
                model := !model @ [ (tag, prio_of_tag tag, vpn) ]);
            require (Release_buffer.total b = List.length !model)
          end)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Runtime filters and policies (against a live VM)                    *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Vm.Config.default with Vm.Config.total_frames = 64; min_freemem = 4; desfree = 8 }

let with_rt ?(policy = Runtime.Aggressive) ?(config = small_config)
    ?(seg_pages = 32) ?governor f =
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~config ~engine () in
  let asp = Os.new_process os ~name:"app" in
  let seg =
    Os.map_segment os asp ~name:"data" ~bytes:(seg_pages * 16384) ~on_swap:true
  in
  let rt = Runtime.create ?governor ~os ~asp ~policy () in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () ->
             Runtime.start rt;
             f os asp seg rt)));
  Engine.run engine;
  (match Engine.crashes engine with
  | [] -> ()
  | (name, e) :: _ ->
      if name = "main" then raise e
      else Alcotest.failf "%s crashed: %s" name (Printexc.to_string e));
  rt

let settle () = Engine.delay ~cat:Account.Sleep (Time_ns.ms 100)

let test_prefetch_filter_resident () =
  let rt =
    with_rt (fun os asp seg rt ->
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Runtime.prefetch_page rt ~vpn:seg.As.base_vpn;
        settle ())
  in
  let s = Runtime.stats rt in
  check_int "filtered as resident" 1 s.Runtime.rt_prefetch_filtered;
  check_int "nothing enqueued" 0 s.Runtime.rt_prefetch_enqueued

let test_prefetch_through_pool () =
  let rt =
    with_rt (fun os asp seg rt ->
        Runtime.prefetch_page rt ~vpn:seg.As.base_vpn;
        settle ();
        check_bool "page arrived" true (Os.page_resident asp ~vpn:seg.As.base_vpn);
        (* first real touch validates without I/O *)
        check_bool "validated" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Validated))
  in
  check_int "enqueued once" 1 (Runtime.stats rt).Runtime.rt_prefetch_enqueued

let test_release_one_behind () =
  (* Releases trail by one request per tag: same page repeated is dropped,
     a new page flushes the previous one. *)
  let rt =
    with_rt (fun os asp seg rt ->
        for i = 0 to 3 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        let vpn0 = seg.As.base_vpn in
        Runtime.release_page rt ~vpn:vpn0 ~priority:0 ~tag:7;
        settle ();
        check_bool "first request only recorded" true (Os.page_resident asp ~vpn:vpn0);
        (* same page again: dropped *)
        Runtime.release_page rt ~vpn:vpn0 ~priority:0 ~tag:7;
        settle ();
        check_bool "still resident" true (Os.page_resident asp ~vpn:vpn0);
        (* different page: the recorded one is now handled *)
        Runtime.release_page rt ~vpn:(vpn0 + 1) ~priority:0 ~tag:7;
        settle ();
        check_bool "previous page released" false (Os.page_resident asp ~vpn:vpn0);
        check_bool "new page still resident" true
          (Os.page_resident asp ~vpn:(vpn0 + 1)))
  in
  let s = Runtime.stats rt in
  check_int "same-page drop counted" 1 s.Runtime.rt_release_filtered_same;
  check_int "one release issued" 1 s.Runtime.rt_release_issued

let test_one_behind_preserves_recorded_priority () =
  (* Regression: a displaced recording must be handled at the priority it
     was recorded with, not the priority of the request that displaced it. *)
  let rt =
    with_rt ~policy:Runtime.Buffered (fun os asp seg rt ->
        for i = 0 to 3 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        let v = Array.init 4 (fun i -> seg.As.base_vpn + i) in
        (* tag 5: recorded at priority 1, displaced by a priority-0 request;
           the displaced release keeps priority 1 and is buffered. *)
        Runtime.release_page rt ~vpn:v.(0) ~priority:1 ~tag:5;
        Runtime.release_page rt ~vpn:v.(1) ~priority:0 ~tag:5;
        settle ();
        check_int "displaced release buffered at its own priority" 1
          (Runtime.buffered_pages rt);
        check_int "nothing issued yet" 0
          (Runtime.stats rt).Runtime.rt_release_issued;
        check_bool "buffered page still resident" true
          (Os.page_resident asp ~vpn:v.(0));
        (* tag 6: recorded at priority 0, displaced by a priority-2 request;
           the displaced release keeps priority 0 and is issued at once. *)
        Runtime.release_page rt ~vpn:v.(2) ~priority:0 ~tag:6;
        Runtime.release_page rt ~vpn:v.(3) ~priority:2 ~tag:6;
        settle ();
        check_bool "priority-0 recording issued on displacement" false
          (Os.page_resident asp ~vpn:v.(2));
        check_int "still exactly one buffered" 1 (Runtime.buffered_pages rt))
  in
  check_int "exactly one page issued" 1
    (Runtime.stats rt).Runtime.rt_release_issued

let test_drain_drops_stale_entries () =
  (* Buffered pages the OS reclaimed behind the runtime's back are dropped
     at drain time and counted, not silently discarded. *)
  let rt =
    with_rt ~policy:Runtime.Buffered (fun os asp seg rt ->
        for i = 0 to 5 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        (* displace three pages into the buffer, one per tag *)
        for t = 0 to 2 do
          Runtime.release_page rt
            ~vpn:(seg.As.base_vpn + (2 * t))
            ~priority:1 ~tag:(t + 1);
          Runtime.release_page rt
            ~vpn:(seg.As.base_vpn + (2 * t) + 1)
            ~priority:1 ~tag:(t + 1)
        done;
        settle ();
        check_int "three buffered" 3 (Runtime.buffered_pages rt);
        (* the OS takes the buffered pages without telling the runtime *)
        Os.release_request os asp
          ~vpns:(Array.init 3 (fun t -> seg.As.base_vpn + (2 * t)));
        settle ();
        Runtime.drain rt;
        settle ())
  in
  let s = Runtime.stats rt in
  check_int "stale entries dropped and counted" 3 s.Runtime.rt_release_stale_dropped;
  check_int "only the live recordings issued" 3 s.Runtime.rt_release_issued

let test_release_bitmap_filter () =
  let rt =
    with_rt (fun _os _asp seg rt ->
        (* page never touched: not resident *)
        Runtime.release_page rt ~vpn:seg.As.base_vpn ~priority:0 ~tag:1;
        settle ())
  in
  check_int "filtered by bitmap" 1
    (Runtime.stats rt).Runtime.rt_release_filtered_bitmap

let test_release_negative_tag () =
  (* Tags index the one-behind filter's arrays: a negative one is a bug in
     the caller, not a site. *)
  ignore
    (with_rt (fun os asp seg rt ->
         ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
         Alcotest.check_raises "negative tag"
           (Invalid_argument "Runtime.release_page: negative tag") (fun () ->
             Runtime.release_page rt ~vpn:seg.As.base_vpn ~priority:1
               ~tag:(-1))))

let test_buffered_policy_retains_until_pressure () =
  let rt =
    with_rt ~policy:Runtime.Buffered (fun os asp seg rt ->
        for i = 0 to 7 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        for i = 0 to 6 do
          Runtime.release_page rt ~vpn:(seg.As.base_vpn + i) ~priority:1 ~tag:3
        done;
        settle ();
        (* memory is ample: nothing should be issued *)
        check_bool "pages retained under no pressure" true
          (Os.page_resident asp ~vpn:seg.As.base_vpn);
        check_bool "buffered" true (Runtime.buffered_pages rt > 0);
        (* at exit, drain flushes the buffer *)
        Runtime.drain rt;
        settle ();
        check_bool "drained on exit" false
          (Os.page_resident asp ~vpn:seg.As.base_vpn))
  in
  let s = Runtime.stats rt in
  check_bool "buffer was used" true (s.Runtime.rt_release_buffered > 0)

let test_aggressive_policy_issues_immediately () =
  let rt =
    with_rt ~policy:Runtime.Aggressive (fun os asp seg rt ->
        for i = 0 to 7 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        for i = 0 to 6 do
          Runtime.release_page rt ~vpn:(seg.As.base_vpn + i) ~priority:1 ~tag:3
        done;
        settle ();
        (* all but the last (still recorded) are gone, despite priority>0 *)
        check_bool "issued despite priority" false
          (Os.page_resident asp ~vpn:seg.As.base_vpn))
  in
  check_int "nothing buffered" 0 (Runtime.stats rt).Runtime.rt_release_buffered

let test_zero_priority_bypasses_buffer () =
  let rt =
    with_rt ~policy:Runtime.Buffered (fun os asp seg rt ->
        for i = 0 to 3 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        for i = 0 to 2 do
          Runtime.release_page rt ~vpn:(seg.As.base_vpn + i) ~priority:0 ~tag:9
        done;
        settle ();
        check_bool "zero-priority issued immediately" false
          (Os.page_resident asp ~vpn:seg.As.base_vpn))
  in
  check_int "buffer untouched" 0 (Runtime.stats rt).Runtime.rt_release_buffered

let test_negative_priority_bypasses_buffer () =
  (* priority < 0 means "no reuse expected": under Buffered it must take
     the immediate path, never Release_buffer.add (which would raise). *)
  let rt =
    with_rt ~policy:Runtime.Buffered (fun os asp seg rt ->
        for i = 0 to 1 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        Runtime.release_page rt ~vpn:seg.As.base_vpn ~priority:(-2) ~tag:4;
        Runtime.release_page rt ~vpn:(seg.As.base_vpn + 1) ~priority:(-2) ~tag:4;
        settle ();
        check_bool "negative priority issued immediately" false
          (Os.page_resident asp ~vpn:seg.As.base_vpn))
  in
  check_int "buffer untouched" 0 (Runtime.stats rt).Runtime.rt_release_buffered;
  check_int "issued" 1 (Runtime.stats rt).Runtime.rt_release_issued

let test_reactive_priority_routing () =
  (* Reactive holds pages for advise_evict, but priority < 0 still means
     the application expects no reuse: issue at once.  Priority 0 is legal
     under Reactive and is held at the buffer's minimum level. *)
  let rt =
    with_rt ~policy:Runtime.Reactive (fun os asp seg rt ->
        for i = 0 to 3 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        Runtime.release_page rt ~vpn:seg.As.base_vpn ~priority:(-1) ~tag:1;
        Runtime.release_page rt ~vpn:(seg.As.base_vpn + 1) ~priority:(-1) ~tag:1;
        settle ();
        check_bool "negative priority issued" false
          (Os.page_resident asp ~vpn:seg.As.base_vpn);
        Runtime.release_page rt ~vpn:(seg.As.base_vpn + 2) ~priority:0 ~tag:2;
        Runtime.release_page rt ~vpn:(seg.As.base_vpn + 3) ~priority:0 ~tag:2;
        settle ();
        check_bool "zero priority held for advise_evict" true
          (Os.page_resident asp ~vpn:(seg.As.base_vpn + 2));
        check_int "buffered" 1 (Runtime.buffered_pages rt))
  in
  check_int "one issued" 1 (Runtime.stats rt).Runtime.rt_release_issued

(* Satellite: under Reactive, advise_evict must never surrender a page the
   residency bitmap shows non-resident — even when the OS reclaimed
   buffered pages behind the runtime's back, and even when the one-behind
   filter let the same vpn into the buffer twice. *)
let prop_reactive_advise_only_resident =
  QCheck.Test.make ~name:"reactive: advise_evict only surrenders resident pages"
    ~count:15
    QCheck.(
      pair
        (list_of_size (Gen.int_range 2 14) (int_bound 15))
        (list_of_size (Gen.int_range 0 8) (int_bound 15)))
    (fun (hints, steals) ->
      let ok = ref true in
      let advised = ref 0 in
      ignore
        (with_rt ~policy:Runtime.Reactive (fun os asp seg rt ->
             for i = 0 to 15 do
               ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
             done;
             (* feed hints through the one-behind filter into the buffer;
                priorities >= 0, so Reactive never issues on its own *)
             (* tag = priority: a buffer tag may not span priorities *)
             List.iter
               (fun p ->
                 Runtime.release_page rt ~vpn:(seg.As.base_vpn + p)
                   ~priority:(p mod 3) ~tag:(p mod 3))
               hints;
             settle ();
             (* the OS reclaims some of them without telling the runtime *)
             (match
                List.sort_uniq compare
                  (List.map (fun p -> seg.As.base_vpn + p) steals)
              with
             | [] -> ()
             | vpns -> Os.release_request os asp ~vpns:(Array.of_list vpns));
             settle ();
             let rec loop () =
               match Runtime.advise_evict rt with
               | None -> ()
               | Some vpn ->
                   incr advised;
                   if not (Os.page_resident asp ~vpn) then ok := false;
                   (* surrender it, as the OS would on our advice *)
                   Os.release_request os asp ~vpns:[| vpn |];
                   settle ();
                   loop ()
             in
             loop ()));
      !ok)

(* A release hint is ints from [Runtime.release_page] to the releaser: no
   tuple, option, list cell or array copy per page.  On the quick
   machine's VM, each of 3 measured rounds touches 150 pages, then hints
   them all (4 tags, so the one-behind filter displaces a page per hint),
   drains under Buffered, and lets the helpers and the releaser finish.
   Only the hints, the drain and the wait are measured, engine waits and
   daemon ticks included.  Returns minor words per hint. *)
let release_words_per_hint policy =
  let config = Vm.Config.scaled ~factor:8 Vm.Config.default in
  let pages = 150 and rounds = 3 in
  let words = ref 0.0 in
  ignore
    (with_rt ~policy ~config ~seg_pages:pages (fun os asp seg rt ->
         let round () =
           for i = 0 to pages - 1 do
             ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
           done;
           let before = Gc.minor_words () in
           for i = 0 to pages - 1 do
             Runtime.release_page rt ~vpn:(seg.As.base_vpn + i) ~priority:1
               ~tag:(i mod 4)
           done;
           if policy = Runtime.Buffered then Runtime.drain rt;
           settle ();
           Gc.minor_words () -. before
         in
         (* the first round grows the rings and the filter *)
         ignore (round () : float);
         for _ = 1 to rounds do
           words := !words +. round ()
         done));
  !words /. float_of_int (pages * rounds)

let test_release_hint_allocation () =
  (* Boxing a hint at each hop (a tuple, an option, a list cell or an
     array copy) costs about 81 (Aggressive) and 50 (Buffered) minor words
     a hint here; as ints, 8.8 and 6.9, nearly all of it the engine waits'
     continuations (OCaml 5.1).  The bounds sit between, with room for
     other compiler versions. *)
  List.iter
    (fun (name, policy, bound) ->
      let w = release_words_per_hint policy in
      check_bool
        (Printf.sprintf "%s: %.1f minor words per hint, bound %.0f" name w
           bound)
        true (w < bound))
    [ ("Aggressive", Runtime.Aggressive, 30.0); ("Buffered", Runtime.Buffered, 20.0) ]

(* ------------------------------------------------------------------ *)
(* Graceful-degradation governor                                       *)
(* ------------------------------------------------------------------ *)

(* A machine small enough that touches exhaust the free list, with the
   paging daemon parked (10 s interval) so nothing replenishes it: every
   OS-side prefetch is then deterministically dropped. *)
let gov_config =
  {
    Vm.Config.default with
    Vm.Config.total_frames = 32;
    min_freemem = 2;
    desfree = 4;
    daemon_interval_ns = Time_ns.sec 10;
  }

let tiny_governor =
  {
    Runtime.gv_window_ns = Time_ns.ms 1;
    gv_min_samples = 1;
    gv_bad_rate = 0.5;
    gv_degrade_after = 1;
    gv_recover_after = 2;
  }

let test_governor_ladder () =
  let rt =
    with_rt ~config:gov_config ~seg_pages:64 ~governor:tiny_governor
      (fun os asp seg rt ->
        (* exhaust the free list *)
        let i = ref 0 in
        while Os.free_pages os > 0 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + !i) ~write:false);
          incr i
        done;
        (* prefetch hints for non-resident pages: each is dropped by the
           OS, each 2 ms gap closes a 1 ms window, and every bad window
           steps the ladder down until directives are off entirely *)
        let j = ref 40 in
        while Runtime.governor_level rt < 2 && !j < 60 do
          Runtime.prefetch_page rt ~vpn:(seg.As.base_vpn + !j);
          incr j;
          Engine.delay ~cat:Account.Sleep (Time_ns.ms 2)
        done;
        check_int "degraded to demand paging" 2 (Runtime.governor_level rt);
        (* hints now arrive during the quiet spell: at level 2 they are
           suppressed (no OS samples), so windows count good and the
           governor probes its way back to the configured policy *)
        for _ = 1 to 10 do
          Runtime.prefetch_page rt ~vpn:seg.As.base_vpn;
          Engine.delay ~cat:Account.Sleep (Time_ns.ms 2)
        done;
        check_int "recovered" 0 (Runtime.governor_level rt))
  in
  let s = Runtime.stats rt in
  check_bool "suppressed hints counted" true (s.Runtime.rt_gov_suppressed > 0);
  check_bool "degrades counted" true (s.Runtime.rt_gov_degrades >= 2);
  check_bool "recoveries counted" true (s.Runtime.rt_gov_recoveries >= 2);
  check_int "final level in stats" 0 s.Runtime.rt_gov_level;
  check_bool "drops were observed" true (s.Runtime.rt_prefetch_os_dropped > 0)

let test_governor_off_by_default () =
  let rt =
    with_rt ~config:gov_config ~seg_pages:64 (fun os asp seg rt ->
        let i = ref 0 in
        while Os.free_pages os > 0 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + !i) ~write:false);
          incr i
        done;
        for j = 40 to 50 do
          Runtime.prefetch_page rt ~vpn:(seg.As.base_vpn + j);
          Engine.delay ~cat:Account.Sleep (Time_ns.ms 2)
        done;
        check_int "level stays 0" 0 (Runtime.governor_level rt))
  in
  let s = Runtime.stats rt in
  check_int "no transitions" 0 (s.Runtime.rt_gov_degrades + s.Runtime.rt_gov_recoveries);
  check_bool "drops happened anyway" true (s.Runtime.rt_prefetch_os_dropped > 0)

(* ------------------------------------------------------------------ *)
(* Helper work FIFO                                                    *)
(* ------------------------------------------------------------------ *)

module Work_fifo = Memhog_runtime.Work_fifo

(* The messages the FIFO replaced, for the reference model. *)
type work =
  | W_prefetch of int * int * bool
  | W_release of (int * int * int) array

(* Item [id] of a program: a prefetch of page [id] or a release batch whose
   first page is [id], so a received item names its id.  Every page of
   every batch has its own priority, so a page delivered in the wrong
   batch or order shows. *)
let fifo_site id = 1000 + id
let fifo_triples id extra =
  Array.init (1 + extra) (fun j -> (id + j, fifo_site id + j, (64 * id) + j))

let describe_prefetch ~vpn ~site ~urgent =
  Printf.sprintf "prefetch vpn=%d site=%d urgent=%b" vpn site urgent

let describe_release triples =
  "release"
  ^ String.concat ""
      (Array.to_list
         (Array.map (fun (v, s, p) -> Printf.sprintf " (%d,%d,%d)" v s p) triples))

(* Run one program against a queue: [nhelpers] helpers loop receiving and
   then working for the item's delay; one sender posts each burst after
   its gap.  [post id kind extra] sends item [id]; [receiver ()] makes one
   helper's blocking receive, returning the item's id and description.
   Returns the (helper, id, item, time) log and each helper's sleep. *)
let run_fifo_program (nhelpers, bursts) ~post ~receiver =
  let items = List.concat_map snd bursts in
  let delays = Array.of_list (List.map (fun (d, _, _) -> d) items) in
  let e = Engine.create () in
  let log = ref [] in
  let helpers =
    List.init nhelpers (fun h ->
        let recv = receiver () in
        Engine.spawn e ~name:(Printf.sprintf "helper-%d" h) (fun () ->
            while true do
              let id, item = recv () in
              log := (h, id, item, Engine.now ()) :: !log;
              Engine.delay ~cat:Account.User delays.(id)
            done))
  in
  ignore
    (Engine.spawn e ~name:"sender" (fun () ->
         let next = ref 0 in
         List.iter
           (fun (gap, burst) ->
             Engine.delay ~cat:Account.User gap;
             List.iter
               (fun (_, kind, extra) ->
                 post !next kind extra;
                 incr next)
               burst)
           bursts));
  Engine.run e;
  ( List.rev !log,
    List.map (fun p -> Account.get (Engine.account p) Account.Sleep) helpers )

let run_on_mailbox prog =
  let box = Mailbox.create () in
  run_fifo_program prog
    ~post:(fun id kind extra ->
      Mailbox.send box
        (if kind = 2 then W_release (fifo_triples id extra)
         else W_prefetch (id, fifo_site id, kind = 1)))
    ~receiver:(fun () () ->
      match Mailbox.recv box with
      | W_prefetch (vpn, site, urgent) ->
          (vpn, describe_prefetch ~vpn ~site ~urgent)
      | W_release triples ->
          let id, _, _ = triples.(0) in
          (id, describe_release triples))

let run_on_work_fifo prog =
  let q = Work_fifo.create () in
  run_fifo_program prog
    ~post:(fun id kind extra ->
      if kind = 2 then begin
        let batch = Int_ring.create ~width:3 in
        Array.iter (fun (v, s, p) -> Int_ring.push3 batch v s p)
          (fifo_triples id extra);
        Work_fifo.send_release q batch
      end
      else Work_fifo.send_prefetch q ~vpn:id ~site:(fifo_site id) ~urgent:(kind = 1))
    ~receiver:(fun () ->
      let slot = Work_fifo.slot q in
      fun () ->
        let prefetch ~urgent =
          let vpn = Work_fifo.vpn slot in
          (vpn, describe_prefetch ~vpn ~site:(Work_fifo.site slot) ~urgent)
        in
        match Work_fifo.recv q slot with
        | Work_fifo.Prefetch -> prefetch ~urgent:false
        | Work_fifo.Urgent_prefetch -> prefetch ~urgent:true
        | Work_fifo.Release ->
            let b = Work_fifo.batch slot in
            let triples =
              Array.init (Int_ring.length b) (fun i ->
                  (Int_ring.get b i 0, Int_ring.get b i 1, Int_ring.get b i 2))
            in
            Int_ring.clear b;
            let id, _, _ = triples.(0) in
            (id, describe_release triples))

(* A program: 1-8 helpers, then bursts posted after gaps of {0,1,2,3,7} ns.
   An item is (work delay in {0,1,2,5} ns, kind, extra): kind 0 is a
   prefetch, 1 an urgent prefetch, 2 a release of 1 + extra pages.  Zero
   delays and gaps make same-instant races between a post and a helper
   coming back for work; one burst in four outgrows the item ring's first
   16 slots, and one batch in four the page ring's, so both grow and
   wrap. *)
let arb_fifo_program =
  let num = QCheck.oneofl ~print:string_of_int in
  let extra =
    QCheck.make ~print:string_of_int
      QCheck.Gen.(frequency [ (3, int_bound 2); (1, int_range 16 39) ])
  in
  let item = QCheck.(triple (num [ 0; 1; 2; 5 ]) (int_range 0 2) extra) in
  let burst_size = QCheck.Gen.(frequency [ (3, int_range 0 4); (1, int_range 17 40) ]) in
  QCheck.(
    pair (int_range 1 8)
      (list_of_size (Gen.int_range 1 10)
         (pair (num [ 0; 1; 2; 3; 7 ]) (list_of_size burst_size item))))

let prop_fifo_matches_mailbox =
  QCheck.Test.make ~name:"work fifo: same schedule as a mailbox" ~count:300
    arb_fifo_program (fun prog ->
      let log_m, sleep_m = run_on_mailbox prog in
      let log_f, sleep_f = run_on_work_fifo prog in
      let show (h, id, item, time) =
        Printf.sprintf "helper %d got item %d (%s) at %d ns" h id item time
      in
      let rec first_diff = function
        | a :: ra, b :: rb -> if a = b then first_diff (ra, rb) else Some (show a, show b)
        | a :: _, [] -> Some (show a, "nothing")
        | [], b :: _ -> Some ("nothing", show b)
        | [], [] -> None
      in
      (match first_diff (log_m, log_f) with
      | Some (m, f) -> QCheck.Test.fail_reportf "mailbox: %s; fifo: %s" m f
      | None -> ());
      if sleep_m <> sleep_f then
        QCheck.Test.fail_reportf "helper sleep: mailbox [%s], fifo [%s]"
          (String.concat "; " (List.map string_of_int sleep_m))
          (String.concat "; " (List.map string_of_int sleep_f));
      true)

(* Queued items are ints: once the ring has grown, posting and receiving
   allocate nothing. *)
let test_fifo_no_allocation () =
  let n = 10_000 in
  let q = Work_fifo.create () in
  let slot = Work_fifo.slot q in
  let cycle () =
    for i = 1 to n do
      Work_fifo.send_prefetch q ~vpn:i ~site:i ~urgent:(i land 1 = 0)
    done;
    for _ = 1 to n do
      ignore (Work_fifo.recv q slot : Work_fifo.kind)
    done
  in
  cycle ();
  let before = Gc.minor_words () in
  cycle ();
  let words = Gc.minor_words () -. before in
  check_int "last item" n (Work_fifo.vpn slot);
  check_bool
    (Printf.sprintf "%.0f minor words for %d items" words n)
    true
    (words < 0.01 *. float_of_int n)

let () =
  Alcotest.run "memhog_runtime"
    [
      ( "release-buffer",
        [
          Alcotest.test_case "lowest priority first" `Quick
            test_buffer_lowest_priority_first;
          Alcotest.test_case "round robin" `Quick test_buffer_round_robin_same_priority;
          Alcotest.test_case "max respected" `Quick test_buffer_respects_max;
          Alcotest.test_case "zero priority rejected" `Quick
            test_buffer_rejects_zero_priority;
          Alcotest.test_case "same-tag pop/refill interleaved" `Quick
            test_buffer_same_tag_pop_refill_interleaved;
          Alcotest.test_case "site ids preserved" `Quick
            test_buffer_preserves_site_ids;
        ] );
      ( "filters",
        [
          Alcotest.test_case "prefetch filter" `Quick test_prefetch_filter_resident;
          Alcotest.test_case "prefetch via pool" `Quick test_prefetch_through_pool;
          Alcotest.test_case "one-behind" `Quick test_release_one_behind;
          Alcotest.test_case "one-behind keeps recorded priority" `Quick
            test_one_behind_preserves_recorded_priority;
          Alcotest.test_case "drain drops stale entries" `Quick
            test_drain_drops_stale_entries;
          Alcotest.test_case "bitmap filter" `Quick test_release_bitmap_filter;
          Alcotest.test_case "negative tag raises" `Quick
            test_release_negative_tag;
        ] );
      ( "policies",
        [
          Alcotest.test_case "buffered retains" `Quick
            test_buffered_policy_retains_until_pressure;
          Alcotest.test_case "aggressive issues" `Quick
            test_aggressive_policy_issues_immediately;
          Alcotest.test_case "zero priority bypasses" `Quick
            test_zero_priority_bypasses_buffer;
          Alcotest.test_case "negative priority bypasses" `Quick
            test_negative_priority_bypasses_buffer;
          Alcotest.test_case "reactive priority routing" `Quick
            test_reactive_priority_routing;
          Alcotest.test_case "release hints allocate ints only" `Quick
            test_release_hint_allocation;
        ] );
      ( "work fifo",
        [
          Alcotest.test_case "no allocation per item" `Quick test_fifo_no_allocation;
          QCheck_alcotest.to_alcotest prop_fifo_matches_mailbox;
        ] );
      ( "governor",
        [
          Alcotest.test_case "ladder degrades and recovers" `Quick
            test_governor_ladder;
          Alcotest.test_case "off by default" `Quick test_governor_off_by_default;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_buffer_conserves_pages;
            prop_buffer_priority_order;
            prop_buffer_interleaved_ops;
            prop_reactive_advise_only_resident;
          ] );
    ]

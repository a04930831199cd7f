(* Tests for the virtual-memory subsystem: fault handling, free list and
   rescue, the paging daemon and the releaser, and the PagingDirected
   request interface. *)

open Memhog_sim
module Vm = Memhog_vm
module Os = Vm.Os
module As = Vm.Address_space

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_config =
  {
    Vm.Config.default with
    Vm.Config.total_frames = 64;
    min_freemem = 4;
    desfree = 8;
  }

(* Run [f] as the "main" process of a fresh machine; stop the simulation when
   it finishes so the daemons do not keep the event loop alive. *)
let with_os ?(config = small_config) f =
  (* Cap simulated time so a genuine deadlock (application blocked while the
     daemons keep polling) terminates instead of spinning forever. *)
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~config ~engine () in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () -> f os)));
  Engine.run engine;
  (match Engine.crashes engine with
  | [] -> ()
  | (name, e) :: _ ->
      if name = "main" then raise e
      else Alcotest.failf "process %s crashed: %s" name (Printexc.to_string e));
  os

let assert_invariants os =
  List.iter
    (fun (what, ok) -> check_bool what true ok)
    (Os.check_invariants os)

(* ------------------------------------------------------------------ *)
(* Address space basics                                                *)
(* ------------------------------------------------------------------ *)

let test_segments_and_bits () =
  let asp = As.create ~pid:0 ~name:"p" () in
  let s1 = As.add_segment asp ~name:"a" ~npages:10 ~swap_base:0 ~on_swap:true in
  let s2 = As.add_segment asp ~name:"b" ~npages:5 ~swap_base:10 ~on_swap:false in
  check_int "segment placement" 10 s2.As.base_vpn;
  check_bool "find" true (As.find_segment asp ~vpn:12 == s2);
  check_bool "find first" true (As.find_segment asp ~vpn:9 == s1);
  Alcotest.check_raises "unmapped" Not_found (fun () ->
      ignore (As.find_segment asp ~vpn:15));
  check_bool "initial pte swapped" true (As.get_pte s1 ~vpn:0 = As.Swapped);
  check_bool "initial pte untouched" true (As.get_pte s2 ~vpn:10 = As.Untouched);
  check_int "swap page" 3 (As.swap_page s1 ~vpn:3);
  check_bool "bit starts clear" false (As.bit s1 ~vpn:7);
  As.set_bit s1 ~vpn:7 true;
  check_bool "bit set" true (As.bit s1 ~vpn:7);
  check_bool "neighbours untouched" false (As.bit s1 ~vpn:6 || As.bit s1 ~vpn:8);
  As.set_bit s1 ~vpn:7 false;
  check_bool "bit cleared" false (As.bit s1 ~vpn:7)

let prop_bitmap_independent =
  QCheck.Test.make ~name:"bitmap bits are independent" ~count:100
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let asp = As.create ~pid:0 ~name:"p" () in
      let seg = As.add_segment asp ~name:"s" ~npages:64 ~swap_base:0 ~on_swap:true in
      As.set_bit seg ~vpn:a true;
      As.bit seg ~vpn:a && not (As.bit seg ~vpn:b))

(* Packed-PTE roundtrip: each of the five states survives encode -> decode
   across the full frame range (0 .. Pte.max_frame), the raw tag/frame
   accessors agree with the variant view, and overwriting an in-transit
   entry drops its ivar from the side table. *)
let prop_pte_roundtrip =
  QCheck.Test.make ~name:"packed pte roundtrip" ~count:500
    QCheck.(pair (int_bound 4) (map (fun n -> abs n land As.Pte.max_frame) int))
    (fun (state, frame) ->
      let asp = As.create ~pid:0 ~name:"p" () in
      let seg =
        As.add_segment asp ~name:"s" ~npages:4 ~swap_base:0 ~on_swap:false
      in
      let vpn = 2 in
      match state with
      | 0 ->
          As.set_pte seg ~vpn As.Untouched;
          As.get_pte seg ~vpn = As.Untouched
          && As.get_raw seg ~vpn = As.Pte.untouched
      | 1 ->
          As.set_pte seg ~vpn As.Swapped;
          As.get_pte seg ~vpn = As.Swapped
          && As.get_raw seg ~vpn = As.Pte.swapped
      | 2 ->
          As.set_pte seg ~vpn (As.Resident frame);
          As.get_pte seg ~vpn = As.Resident frame
          &&
          let p = As.get_raw seg ~vpn in
          As.Pte.tag p = As.Pte.tag_resident && As.Pte.frame p = frame
      | 3 ->
          As.set_pte seg ~vpn (As.On_free_list frame);
          As.get_pte seg ~vpn = As.On_free_list frame
          &&
          let p = As.get_raw seg ~vpn in
          As.Pte.tag p = As.Pte.tag_on_free_list && As.Pte.frame p = frame
      | _ ->
          let ivar = Ivar.create () in
          As.set_pte seg ~vpn (As.In_transit ivar);
          (match As.get_pte seg ~vpn with
          | As.In_transit iv -> iv == ivar && As.transit_ivar seg ~vpn == ivar
          | _ -> false)
          && As.Pte.tag (As.get_raw seg ~vpn) = As.Pte.tag_in_transit
          && begin
               (* overwriting the in-transit word must clear the side table *)
               As.set_raw seg ~vpn (As.Pte.resident frame);
               match As.transit_ivar seg ~vpn with
               | exception Not_found -> true
               | _ -> false
             end)

(* ------------------------------------------------------------------ *)
(* Free list                                                           *)
(* ------------------------------------------------------------------ *)

let test_free_list_fifo_and_remove () =
  let frames = Array.init 8 Vm.Frame.make in
  let fl = Vm.Free_list.create frames in
  Vm.Free_list.push_tail fl frames.(3);
  Vm.Free_list.push_tail fl frames.(5);
  Vm.Free_list.push_tail fl frames.(1);
  check_int "len" 3 (Vm.Free_list.length fl);
  (* remove from the middle *)
  Vm.Free_list.remove fl frames.(5);
  check_int "len after remove" 2 (Vm.Free_list.length fl);
  check_bool "not mem" false (Vm.Free_list.mem fl frames.(5));
  (match Vm.Free_list.pop_head fl with
  | Some f -> check_int "fifo head" 3 f.Vm.Frame.idx
  | None -> Alcotest.fail "expected head");
  (match Vm.Free_list.pop_head fl with
  | Some f -> check_int "fifo next" 1 f.Vm.Frame.idx
  | None -> Alcotest.fail "expected second");
  check_bool "empty" true (Vm.Free_list.is_empty fl)

let test_free_list_mem_checks_this_list () =
  (* [mem] must test membership in the given list, not just the frame's
     own flag: a frame on some other list's backing array is no member. *)
  let frames_a = Array.init 4 Vm.Frame.make in
  let frames_b = Array.init 4 Vm.Frame.make in
  let la = Vm.Free_list.create frames_a in
  let lb = Vm.Free_list.create frames_b in
  Vm.Free_list.push_tail la frames_a.(2);
  check_bool "member of its own list" true (Vm.Free_list.mem la frames_a.(2));
  check_bool "not member of a different list" false
    (Vm.Free_list.mem lb frames_a.(2));
  check_bool "unlisted frame of the other array" false
    (Vm.Free_list.mem la frames_b.(2));
  Vm.Free_list.remove la frames_a.(2);
  check_bool "not member after remove" false (Vm.Free_list.mem la frames_a.(2))

let prop_free_list_model =
  (* Compare against a list model under random push/pop/remove. *)
  QCheck.Test.make ~name:"free list behaves like a FIFO with removal" ~count:200
    QCheck.(list (pair (int_bound 2) (int_bound 15)))
    (fun ops ->
      let frames = Array.init 16 Vm.Frame.make in
      let fl = Vm.Free_list.create frames in
      let model = ref [] in
      List.iter
        (fun (op, i) ->
          let f = frames.(i) in
          match op with
          | 0 ->
              if not f.Vm.Frame.on_free_list then begin
                Vm.Free_list.push_tail fl f;
                model := !model @ [ i ]
              end
          | 1 -> (
              match Vm.Free_list.pop_head fl with
              | Some g ->
                  (match !model with
                  | m :: rest when m = g.Vm.Frame.idx -> model := rest
                  | _ -> failwith "model mismatch on pop")
              | None -> if !model <> [] then failwith "pop missed")
          | _ ->
              if f.Vm.Frame.on_free_list then begin
                Vm.Free_list.remove fl f;
                model := List.filter (fun x -> x <> i) !model
              end)
        ops;
      let order = ref [] in
      Vm.Free_list.iter fl (fun f -> order := f.Vm.Frame.idx :: !order);
      List.rev !order = !model && Vm.Free_list.length fl = List.length !model)

(* ------------------------------------------------------------------ *)
(* Fault handling                                                      *)
(* ------------------------------------------------------------------ *)

let test_hard_then_fast () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"data" ~bytes:(10 * 16384) ~on_swap:true in
        let t0 = Engine.now () in
        check_bool "first touch is hard" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Hard);
        check_bool "hard fault takes disk time" true
          (Engine.now () - t0 > Time_ns.ms 1);
        check_bool "second touch fast" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Fast);
        check_int "rss" 1 asp.As.rss;
        check_bool "bit set" true (Os.page_resident asp ~vpn:seg.As.base_vpn);
        check_int "one hard fault" 1 asp.As.stats.Vm.Vm_stats.hard_faults)
  in
  assert_invariants os

let test_zero_fill () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"heap" ~bytes:16384 ~on_swap:false in
        let t0 = Engine.now () in
        check_bool "zero filled" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Zero_filled);
        check_bool "no disk time" true (Engine.now () - t0 < Time_ns.ms 1);
        check_int "no hard faults" 0 asp.As.stats.Vm.Vm_stats.hard_faults;
        check_int "one zero fill" 1 asp.As.stats.Vm.Vm_stats.zero_fills)
  in
  ignore (Os.swap os);
  check_int "no swap reads" 0 (Memhog_disk.Swap.page_reads (Os.swap os))

let test_write_marks_dirty_and_writeback_on_release () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:true);
        ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + 1) ~write:false);
        Os.release_request os asp
          ~vpns:[| seg.As.base_vpn; seg.As.base_vpn + 1 |];
        (* give the releaser time to write back and free *)
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 100);
        check_int "both freed" 2 asp.As.stats.Vm.Vm_stats.freed_by_releaser;
        check_int "one writeback (dirty page only)" 1
          asp.As.stats.Vm.Vm_stats.writebacks)
  in
  check_int "swap writes" 1 (Memhog_disk.Swap.page_writes (Os.swap os))

let test_memory_fills_then_daemon_steals () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"hog" in
        let seg =
          Os.map_segment os asp ~name:"big" ~bytes:(128 * 16384) ~on_swap:true
        in
        for i = 0 to 127 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        check_bool "rss bounded by memory" true (asp.As.rss <= 64);
        check_int "all pages faulted" 128 asp.As.stats.Vm.Vm_stats.hard_faults)
  in
  check_bool "daemon stole pages" true
    ((Os.global_stats os).Vm.Vm_stats.daemon_pages_stolen > 0);
  check_bool "daemon activated" true
    ((Os.global_stats os).Vm.Vm_stats.daemon_activations > 0);
  assert_invariants os

let test_soft_faults_under_pressure () =
  (* A small hot set re-touched while a stream causes daemon invalidations:
     the hot set sees soft faults (software ref bits).  Use a small scan
     batch so a full clock pass takes several daemon ticks, leaving a window
     in which invalidated hot pages are re-referenced before being stolen. *)
  let os =
    with_os ~config:{ small_config with Vm.Config.daemon_batch = 8 } (fun os ->
        let asp = Os.new_process os ~name:"hog" in
        let hot = Os.map_segment os asp ~name:"hot" ~bytes:(4 * 16384) ~on_swap:true in
        let big =
          Os.map_segment os asp ~name:"big" ~bytes:(512 * 16384) ~on_swap:true
        in
        for round = 0 to 7 do
          for i = 0 to 63 do
            (* keep the hot set genuinely hot: re-reference it between
               daemon passes, so invalidations hit pages still in use *)
            if i mod 8 = 0 then
              for h = 0 to 3 do
                ignore (Os.touch os asp ~vpn:(hot.As.base_vpn + h) ~write:false)
              done;
            ignore
              (Os.touch os asp ~vpn:(big.As.base_vpn + (round * 64) + i) ~write:false)
          done
        done;
        check_bool "invalidations happened" true
          (asp.As.stats.Vm.Vm_stats.invalidations > 0);
        check_bool "soft faults happened" true
          (asp.As.stats.Vm.Vm_stats.soft_faults > 0))
  in
  assert_invariants os

let test_hw_ref_bits_no_soft_faults () =
  let config =
    { small_config with Vm.Config.hw_ref_bits = true; daemon_batch = 8 }
  in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"hog" in
        let hot = Os.map_segment os asp ~name:"hot" ~bytes:(4 * 16384) ~on_swap:true in
        let big =
          Os.map_segment os asp ~name:"big" ~bytes:(512 * 16384) ~on_swap:true
        in
        for round = 0 to 7 do
          for i = 0 to 63 do
            if i mod 8 = 0 then
              for h = 0 to 3 do
                ignore (Os.touch os asp ~vpn:(hot.As.base_vpn + h) ~write:false)
              done;
            ignore
              (Os.touch os asp ~vpn:(big.As.base_vpn + (round * 64) + i) ~write:false)
          done
        done;
        check_int "no soft faults with hardware bits" 0
          asp.As.stats.Vm.Vm_stats.soft_faults;
        check_int "no invalidations" 0 asp.As.stats.Vm.Vm_stats.invalidations)
  in
  check_bool "daemon still steals" true
    ((Os.global_stats os).Vm.Vm_stats.daemon_pages_stolen > 0)

(* ------------------------------------------------------------------ *)
(* Release / rescue                                                    *)
(* ------------------------------------------------------------------ *)

let test_release_frees_and_rescues () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(10 * 16384) ~on_swap:true in
        for i = 0 to 9 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        let free_before = Os.free_pages os in
        Os.release_request os asp
          ~vpns:(Array.init 10 (fun i -> seg.As.base_vpn + i));
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        check_int "pages returned" (free_before + 10) (Os.free_pages os);
        check_int "rss dropped" 0 asp.As.rss;
        check_bool "bit cleared" false (Os.page_resident asp ~vpn:seg.As.base_vpn);
        (* rescue: contents still on the free list *)
        check_bool "rescued" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false
          = Os.Rescued Vm.Vm_stats.Releaser);
        check_int "rescue recorded" 1 asp.As.stats.Vm.Vm_stats.rescued_releaser;
        check_int "no extra hard fault" 10 asp.As.stats.Vm.Vm_stats.hard_faults)
  in
  assert_invariants os

let test_release_skipped_when_retouch () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:16384 ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Os.release_request os asp ~vpns:[| seg.As.base_vpn |];
        (* Touch again before the releaser acts: sets the bit, vetoing it. *)
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        check_int "release skipped" 1 asp.As.stats.Vm.Vm_stats.releases_skipped;
        check_int "nothing freed" 0 asp.As.stats.Vm.Vm_stats.freed_by_releaser;
        check_int "still resident" 1 asp.As.rss)
  in
  assert_invariants os

let test_released_page_lost_after_reallocation () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:16384 ~on_swap:true in
        let big = Os.map_segment os asp ~name:"big" ~bytes:(80 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Os.release_request os asp ~vpns:[| seg.As.base_vpn |];
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        (* Fill memory so the freed frame is reallocated. *)
        for i = 0 to 79 do
          ignore (Os.touch os asp ~vpn:(big.As.base_vpn + i) ~write:false)
        done;
        check_bool "touch is hard (content lost)" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Hard);
        check_bool "lost-release recorded" true
          (asp.As.stats.Vm.Vm_stats.lost_releaser >= 1))
  in
  assert_invariants os

(* ------------------------------------------------------------------ *)
(* Prefetch                                                            *)
(* ------------------------------------------------------------------ *)

let test_prefetch_then_validate () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        check_bool "prefetch fetched" true
          (Os.prefetch os asp ~site:Trace.no_site ~urgent:false
               ~vpn:seg.As.base_vpn = Os.P_fetched);
        check_bool "bit set by prefetch" true
          (Os.page_resident asp ~vpn:seg.As.base_vpn);
        (* Touch after prefetch: cheap validation fault, no I/O. *)
        let reads_before = Memhog_disk.Swap.page_reads (Os.swap os) in
        check_bool "validated" true
          (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false = Os.Validated);
        check_int "no further I/O" reads_before
          (Memhog_disk.Swap.page_reads (Os.swap os));
        check_bool "redundant prefetch" true
          (Os.prefetch os asp ~site:Trace.no_site ~urgent:false
               ~vpn:seg.As.base_vpn = Os.P_already);
        check_int "useless counted" 1 asp.As.stats.Vm.Vm_stats.prefetches_useless)
  in
  assert_invariants os

let test_prefetch_dropped_when_no_free_memory () =
  let config = { small_config with Vm.Config.min_freemem = 0; desfree = 0 } in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(70 * 16384) ~on_swap:true in
        (* Consume every frame (64) by touching 64 pages; daemon is disabled
           by min_freemem = 0. *)
        for i = 0 to 63 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        check_int "memory exhausted" 0 (Os.free_pages os);
        check_bool "prefetch dropped" true
          (Os.prefetch os asp ~site:Trace.no_site ~urgent:false
               ~vpn:(seg.As.base_vpn + 65) = Os.P_dropped);
        check_int "dropped counted" 1 asp.As.stats.Vm.Vm_stats.prefetches_dropped)
  in
  assert_invariants os

let test_prefetch_race_with_demand_fault () =
  (* Regression: with blocking prefetches (the drop-prefetch ablation), a
     prefetch that waits for a frame gives up the as_lock; a demand fault can
     install the same page meanwhile.  The prefetch must re-check the PTE and
     surrender its frame, not overwrite the resident mapping (which leaked
     the frame and double-counted rss). *)
  let config =
    {
      small_config with
      Vm.Config.min_freemem = 0;
      desfree = 0;
      drop_prefetch_when_low = false;
    }
  in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(70 * 16384) ~on_swap:true in
        (* Exhaust the 64 frames so the prefetch blocks for one. *)
        for i = 0 to 63 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        check_int "memory exhausted" 0 (Os.free_pages os);
        let target = seg.As.base_vpn + 65 in
        ignore
          (Engine.spawn (Os.engine os) ~name:"prefetcher" (fun () ->
               ignore (Os.prefetch os asp ~site:Trace.no_site
                   ~urgent:false ~vpn:target)));
        (* Let the prefetcher reach alloc_frame_blocking and park. *)
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 1);
        ignore
          (Engine.spawn (Os.engine os) ~name:"trigger" (fun () ->
               Engine.delay ~cat:Account.Sleep (Time_ns.ms 2);
               (* Free two frames: one each for the blocked prefetch and the
                  blocked demand fault below. *)
               Os.release_request os asp
                 ~vpns:[| seg.As.base_vpn; seg.As.base_vpn + 1 |]));
        (* Demand-fault the very page the prefetch is waiting to install. *)
        check_bool "demand fault brings the page in" true
          (Os.touch os asp ~vpn:target ~write:false = Os.Hard);
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 100);
        check_int "prefetch noticed it lost the race" 1
          asp.As.stats.Vm.Vm_stats.prefetches_useless;
        check_bool "page resident exactly once" true
          (match As.get_pte seg ~vpn:target with
          | As.Resident _ -> true
          | _ -> false))
  in
  assert_invariants os

let test_shutdown_quiesces_daemons () =
  (* [Os.shutdown] must wake the paging daemon and the releaser so
     [Engine.run] can drain without an explicit [Engine.stop]. *)
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~config:small_config ~engine () in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         let asp = Os.new_process os ~name:"app" in
         let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
         ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
         Engine.delay ~cat:Account.Sleep (Time_ns.ms 5);
         Os.shutdown os));
  Engine.run engine;
  (match Engine.crashes engine with
  | [] -> ()
  | (name, e) :: _ ->
      Alcotest.failf "process %s crashed: %s" name (Printexc.to_string e));
  check_bool "run returned without Engine.stop" false (Engine.stopped engine);
  check_int "all processes (incl. daemons) exited" 0 (Engine.live_count engine);
  List.iter
    (fun (what, ok) -> check_bool what true ok)
    (Os.check_invariants os)

let test_shutdown_after_request () =
  (* A request that woke the idle releaser is processed even when a
     shutdown follows it at the same instant. *)
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~config:small_config ~engine () in
  let freed = ref (-1) in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         let asp = Os.new_process os ~name:"app" in
         let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
         for i = 0 to 1 do
           ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
         done;
         Engine.delay ~cat:Account.Sleep (Time_ns.ms 5);
         Os.release_request os asp ~vpns:[| seg.As.base_vpn; seg.As.base_vpn + 1 |];
         Os.shutdown os;
         Engine.delay ~cat:Account.Sleep (Time_ns.ms 5);
         freed := asp.As.stats.Vm.Vm_stats.freed_by_releaser));
  Engine.run engine;
  check_int "the waking request was processed" 2 !freed;
  check_int "all processes (incl. daemons) exited" 0 (Engine.live_count engine)

(* ------------------------------------------------------------------ *)
(* Shared page info                                                    *)
(* ------------------------------------------------------------------ *)

let test_upper_limit_formula () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(10 * 16384) ~on_swap:true in
        for i = 0 to 4 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        let free = Os.free_pages os in
        check_int "current usage" 5 (Os.shared_current_usage os asp);
        (* Equation 1 with maxrss unlimited *)
        check_int "upper limit" (5 + free - 4) (Os.shared_upper_limit os asp))
  in
  ignore os

let test_maxrss_trim () =
  let config = { small_config with Vm.Config.maxrss = 16 } in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(32 * 16384) ~on_swap:true in
        for i = 0 to 31 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        (* Let the daemon trim. *)
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 200);
        check_bool "trimmed to maxrss" true (asp.As.rss <= 16))
  in
  assert_invariants os

let test_release_of_nonresident_pages_is_noop () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        (* release pages that were never touched *)
        Os.release_request os asp ~vpns:(Array.init 4 (fun i -> seg.As.base_vpn + i));
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        check_int "all skipped" 4 asp.As.stats.Vm.Vm_stats.releases_skipped;
        check_int "nothing freed" 0 asp.As.stats.Vm.Vm_stats.freed_by_releaser)
  in
  assert_invariants os

let test_release_of_unmapped_addresses_ignored () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let _seg = Os.map_segment os asp ~name:"d" ~bytes:16384 ~on_swap:true in
        (* far outside any segment: must not crash the releaser *)
        Os.release_request os asp ~vpns:[| 10_000; 20_000 |];
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50))
  in
  assert_invariants os

let test_releaser_chunks () =
  (* The releaser frees a request in [releaser_batch] (32) chunks, each
     holding the locks for [releaser_page_ns] (250 ns) a page: a 100-page
     clean request goes in groups of 32, 32, 32 and 4, 8,000 ns apart,
     and a 10-page request posted 8,000 ns after it waits for the fourth
     group. *)
  let config = { small_config with Vm.Config.total_frames = 256 } in
  let trace = Trace.create () in
  let engine = Engine.create ~max_time:(Time_ns.sec 3600) () in
  let os = Os.create ~obs:(Obs.create ~trace ()) ~config ~engine () in
  let base = ref 0 in
  ignore
    (Engine.spawn engine ~name:"main" (fun () ->
         Fun.protect ~finally:Engine.stop (fun () ->
             let asp = Os.new_process os ~name:"app" in
             let seg =
               Os.map_segment os asp ~name:"d" ~bytes:(110 * 16384) ~on_swap:true
             in
             base := seg.As.base_vpn;
             for i = 0 to 109 do
               ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
             done;
             Engine.delay ~cat:Account.Sleep (Time_ns.ms 10);
             Os.release_request os asp
               ~vpns:(Array.init 100 (fun i -> seg.As.base_vpn + i));
             Engine.delay ~cat:Account.Sleep 8_000;
             Os.release_request os asp
               ~vpns:(Array.init 10 (fun i -> seg.As.base_vpn + 100 + i));
             Engine.delay ~cat:Account.Sleep (Time_ns.ms 10))));
  Engine.run engine;
  (* (time, pages freed then, pages of the second request among them) *)
  let groups = ref [] in
  Trace.iter trace (fun ~time ~stream:_ ev ->
      match ev with
      | Trace.Releaser_free { vpn; _ } -> (
          let second = if vpn >= !base + 100 then 1 else 0 in
          match !groups with
          | (t, n, s) :: rest when t = time ->
              groups := (t, n + 1, s + second) :: rest
          | _ -> groups := (time, 1, second) :: !groups)
      | _ -> ());
  match List.rev !groups with
  | [ (t0, 32, 0); (t1, 32, 0); (t2, 32, 0); (t3, 4, 0); (t4, 10, 10) ] ->
      check_int "second chunk" 8_000 (t1 - t0);
      check_int "third chunk" 8_000 (t2 - t1);
      check_int "fourth chunk" 8_000 (t3 - t2);
      check_int "the second request right after the fourth chunk" 1_000
        (t4 - t3)
  | gs ->
      Alcotest.failf "releaser free groups (time, pages, second request): %s"
        (String.concat "; "
           (List.map (fun (t, n, s) -> Printf.sprintf "(%d, %d, %d)" t n s) gs))

let test_double_release_idempotent () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(2 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        Os.release_request os asp ~vpns:[| seg.As.base_vpn |];
        Os.release_request os asp ~vpns:[| seg.As.base_vpn |];
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 50);
        check_int "freed once" 1 asp.As.stats.Vm.Vm_stats.freed_by_releaser;
        check_int "second skipped" 1 asp.As.stats.Vm.Vm_stats.releases_skipped)
  in
  assert_invariants os

let test_two_processes_isolated_page_tables () =
  let os =
    with_os (fun os ->
        let a = Os.new_process os ~name:"a" in
        let b = Os.new_process os ~name:"b" in
        let sa = Os.map_segment os a ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        let sb = Os.map_segment os b ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        ignore (Os.touch os a ~vpn:sa.As.base_vpn ~write:true);
        ignore (Os.touch os b ~vpn:sb.As.base_vpn ~write:false);
        check_int "a rss" 1 a.As.rss;
        check_int "b rss" 1 b.As.rss;
        (* same vpn numbers in different spaces are different pages *)
        check_bool "distinct swap pages" true
          (As.swap_page sa ~vpn:sa.As.base_vpn <> As.swap_page sb ~vpn:sb.As.base_vpn))
  in
  assert_invariants os

let test_shared_page_updates_are_lazy () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"a" in
        let hog = Os.new_process os ~name:"hog" in
        let sa = Os.map_segment os asp ~name:"d" ~bytes:(8 * 16384) ~on_swap:true in
        let sh = Os.map_segment os hog ~name:"d" ~bytes:(32 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:sa.As.base_vpn ~write:false);
        let limit_before = Os.shared_upper_limit os asp in
        (* another process consumes memory: asp's limit is NOT updated... *)
        for i = 0 to 31 do
          ignore (Os.touch os hog ~vpn:(sh.As.base_vpn + i) ~write:false)
        done;
        check_int "limit stale until own activity" limit_before
          (Os.shared_upper_limit os asp);
        (* ...until it has memory-system activity of its own *)
        ignore (Os.touch os asp ~vpn:(sa.As.base_vpn + 1) ~write:false);
        check_bool "limit dropped after activity" true
          (Os.shared_upper_limit os asp < limit_before))
  in
  ignore os

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tlb_basics () =
  let tlb = Vm.Tlb.create ~entries:4 in
  check_bool "cold miss" false (Vm.Tlb.access tlb ~vpn:10);
  check_bool "warm hit" true (Vm.Tlb.access tlb ~vpn:10);
  (* direct-mapped conflict: 14 maps to the same slot as 10 *)
  check_bool "conflict miss" false (Vm.Tlb.access tlb ~vpn:14);
  check_bool "victim evicted" false (Vm.Tlb.access tlb ~vpn:10);
  Vm.Tlb.invalidate tlb ~vpn:10;
  check_bool "invalidated" false (Vm.Tlb.hit tlb ~vpn:10);
  check_int "misses counted" 3 (Vm.Tlb.misses tlb);
  check_int "hits counted" 1 (Vm.Tlb.hits tlb);
  Alcotest.check_raises "power of two"
    (Invalid_argument "Tlb.create: entries must be a positive power of two")
    (fun () -> ignore (Vm.Tlb.create ~entries:3))

let test_prefetch_makes_no_tlb_entry () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        ignore (Os.prefetch os asp ~site:Trace.no_site
            ~urgent:false ~vpn:seg.As.base_vpn);
        check_bool "no TLB entry after prefetch" false
          (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn);
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        check_bool "TLB entry after validation" true
          (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn))
  in
  ignore os

let test_prefetch_fills_tlb_when_enabled () =
  let config = { small_config with Vm.Config.prefetch_fills_tlb = true } in
  let os =
    with_os ~config (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(4 * 16384) ~on_swap:true in
        ignore (Os.prefetch os asp ~site:Trace.no_site
            ~urgent:false ~vpn:seg.As.base_vpn);
        check_bool "TLB entry installed by prefetch (ablation)" true
          (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn))
  in
  ignore os

let test_tlb_flush () =
  let tlb = Vm.Tlb.create ~entries:8 in
  for v = 0 to 7 do
    ignore (Vm.Tlb.access tlb ~vpn:v)
  done;
  Vm.Tlb.flush tlb;
  for v = 0 to 7 do
    check_bool "flushed" false (Vm.Tlb.hit tlb ~vpn:v)
  done

let test_prefetch_of_unmapped_address () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let _seg = Os.map_segment os asp ~name:"d" ~bytes:16384 ~on_swap:true in
        check_bool "unmapped prefetch is a harmless no-op" true
          (Os.prefetch os asp ~site:Trace.no_site ~urgent:false
               ~vpn:99_999 = Os.P_already))
  in
  ignore os

let test_daemon_invalidation_clears_tlb () =
  let os =
    with_os (fun os ->
        let asp = Os.new_process os ~name:"app" in
        let seg = Os.map_segment os asp ~name:"d" ~bytes:(128 * 16384) ~on_swap:true in
        ignore (Os.touch os asp ~vpn:seg.As.base_vpn ~write:false);
        check_bool "entry present" true (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn);
        (* stream to trigger daemon passes *)
        for i = 1 to 127 do
          ignore (Os.touch os asp ~vpn:(seg.As.base_vpn + i) ~write:false)
        done;
        Engine.delay ~cat:Account.Sleep (Time_ns.ms 100);
        check_bool "entry invalidated under pressure" false
          (Vm.Tlb.hit asp.As.tlb ~vpn:seg.As.base_vpn))
  in
  ignore os

(* ------------------------------------------------------------------ *)
(* Invariants under random load                                        *)
(* ------------------------------------------------------------------ *)

let prop_invariants_random_load =
  QCheck.Test.make ~name:"VM invariants hold under random touch/release/prefetch"
    ~count:30
    QCheck.(pair (int_bound 1000) (list (pair (int_bound 2) (int_bound 95))))
    (fun (_seed, ops) ->
      let os =
        with_os (fun os ->
            let asp = Os.new_process os ~name:"app" in
            let seg =
              Os.map_segment os asp ~name:"d" ~bytes:(96 * 16384) ~on_swap:true
            in
            List.iter
              (fun (op, page) ->
                let vpn = seg.As.base_vpn + page in
                match op with
                | 0 -> ignore (Os.touch os asp ~vpn ~write:(page mod 3 = 0))
                | 1 ->
                    ignore
                      (Os.prefetch os asp ~site:Trace.no_site ~urgent:false ~vpn)
                | _ -> Os.release_request os asp ~vpns:[| vpn |])
              ops;
            Engine.delay ~cat:Account.Sleep (Time_ns.ms 20))
      in
      List.for_all snd (Os.check_invariants os))

let prop_invariants_two_processes =
  (* Two processes interleave touches/releases: isolation and global
     invariants must survive the contention. *)
  QCheck.Test.make
    ~name:"VM invariants hold with two competing processes" ~count:20
    QCheck.(list (tup3 bool (int_bound 2) (int_bound 63)))
    (fun ops ->
      let os =
        with_os (fun os ->
            let a = Os.new_process os ~name:"a" in
            let b = Os.new_process os ~name:"b" in
            let sa = Os.map_segment os a ~name:"d" ~bytes:(64 * 16384) ~on_swap:true in
            let sb = Os.map_segment os b ~name:"d" ~bytes:(64 * 16384) ~on_swap:true in
            List.iter
              (fun (which, op, page) ->
                let asp, seg = if which then (a, sa) else (b, sb) in
                let vpn = seg.As.base_vpn + page in
                match op with
                | 0 -> ignore (Os.touch os asp ~vpn ~write:(page mod 2 = 0))
                | 1 ->
                    ignore
                      (Os.prefetch os asp ~site:Trace.no_site ~urgent:false ~vpn)
                | _ -> Os.release_request os asp ~vpns:[| vpn |])
              ops;
            Engine.delay ~cat:Account.Sleep (Time_ns.ms 20))
      in
      List.for_all snd (Os.check_invariants os))

let () =
  Alcotest.run "memhog_vm"
    [
      ( "address-space",
        [
          Alcotest.test_case "segments and bits" `Quick test_segments_and_bits;
        ] );
      ( "free-list",
        [
          Alcotest.test_case "fifo and remove" `Quick test_free_list_fifo_and_remove;
          Alcotest.test_case "mem checks this list" `Quick
            test_free_list_mem_checks_this_list;
        ] );
      ( "faults",
        [
          Alcotest.test_case "hard then fast" `Quick test_hard_then_fast;
          Alcotest.test_case "zero fill" `Quick test_zero_fill;
          Alcotest.test_case "dirty writeback" `Quick
            test_write_marks_dirty_and_writeback_on_release;
          Alcotest.test_case "daemon steals when full" `Quick
            test_memory_fills_then_daemon_steals;
          Alcotest.test_case "soft faults under pressure" `Quick
            test_soft_faults_under_pressure;
          Alcotest.test_case "hw ref bits ablation" `Quick
            test_hw_ref_bits_no_soft_faults;
        ] );
      ( "release-rescue",
        [
          Alcotest.test_case "release of non-resident" `Quick
            test_release_of_nonresident_pages_is_noop;
          Alcotest.test_case "release of unmapped" `Quick
            test_release_of_unmapped_addresses_ignored;
          Alcotest.test_case "double release" `Quick test_double_release_idempotent;
          Alcotest.test_case "releaser chunks" `Quick test_releaser_chunks;
          Alcotest.test_case "release then rescue" `Quick test_release_frees_and_rescues;
          Alcotest.test_case "release vetoed by re-touch" `Quick
            test_release_skipped_when_retouch;
          Alcotest.test_case "release lost after reallocation" `Quick
            test_released_page_lost_after_reallocation;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "prefetch then validate" `Quick test_prefetch_then_validate;
          Alcotest.test_case "dropped when memory full" `Quick
            test_prefetch_dropped_when_no_free_memory;
          Alcotest.test_case "unmapped address" `Quick
            test_prefetch_of_unmapped_address;
          Alcotest.test_case "blocking prefetch races demand fault" `Quick
            test_prefetch_race_with_demand_fault;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "daemons quiesce" `Quick
            test_shutdown_quiesces_daemons;
          Alcotest.test_case "a waking request survives shutdown" `Quick
            test_shutdown_after_request;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "basics" `Quick test_tlb_basics;
          Alcotest.test_case "prefetch makes no entry" `Quick
            test_prefetch_makes_no_tlb_entry;
          Alcotest.test_case "prefetch fills when enabled" `Quick
            test_prefetch_fills_tlb_when_enabled;
          Alcotest.test_case "daemon invalidation clears" `Quick
            test_daemon_invalidation_clears_tlb;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
        ] );
      ( "shared-page",
        [
          Alcotest.test_case "upper limit formula" `Quick test_upper_limit_formula;
          Alcotest.test_case "lazy updates" `Quick test_shared_page_updates_are_lazy;
          Alcotest.test_case "process isolation" `Quick
            test_two_processes_isolated_page_tables;
          Alcotest.test_case "maxrss trim" `Quick test_maxrss_trim;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bitmap_independent;
            prop_pte_roundtrip;
            prop_free_list_model;
            prop_invariants_random_load;
            prop_invariants_two_processes;
          ]
      );
    ]
